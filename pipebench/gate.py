"""Correctness gate of the pipeline benchmark.

Every `montecarlo` report and every `analyze` report the benchmark times is
checked here; a failure counts against the run and makes it exit non-zero.
The checks use exact arithmetic and none of the package's solvers.
"""

from __future__ import annotations

import hashlib
import json

from .graphons import concentration_of, incidence_rows, support_edges

CSV_HEADER = "trial,seed,n,oracle,constructive,x_interior"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_digest(report) -> str:
    return digest(json.dumps(report.to_dict(), sort_keys=True))


def check_montecarlo_csv(csv_text: str, n: int, trials: int) -> tuple[list[str], int]:
    """Structural checks of a `montecarlo` CSV.  Returns the failures and
    the number of trials they touch (all of them if the table is malformed)."""
    lines = csv_text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return ["CSV header differs"], trials
    rows = lines[1:]
    if len(rows) != trials:
        return [f"{len(rows)} CSV rows for {trials} trials"], trials
    fails = []
    for i, line in enumerate(rows):
        try:
            trial, _seed, rn, oracle, constructive, interior = (int(v) for v in line.split(","))
        except ValueError:
            fails.append(f"row {i} is malformed")
            continue
        if trial != i or rn != n or {oracle, constructive, interior} - {0, 1}:
            fails.append(f"row {i} has wrong trial, n or flags")
        elif constructive > oracle:
            fails.append(f"row {i}: constructive witness without oracle success")
    return fails, len(fails)


def check_analysis(report, w, expected_verdict: str) -> list[str]:
    """The verdict must be the expected one; a predicts-h verdict must carry
    coefficients c with Z c = x, sum(c) = 1 and min(c) = margin > 0."""
    verdict = report.verdict.value
    if verdict != expected_verdict:
        return [f"verdict {verdict}, expected {expected_verdict}"]
    if verdict != "predicts-h":
        return []
    cert = report.certificate
    if cert is None or cert.coefficients is None or cert.margin is None:
        return ["predicts-h without a certificate"]
    edges = support_edges(w)
    c = cert.coefficients
    if len(c) != len(edges):
        return [f"{len(c)} coefficients for {len(edges)} skeleton edges"]
    fails = []
    x = concentration_of(w)
    for i, zr in enumerate(incidence_rows(w.q, edges)):
        if sum(a * b for a, b in zip(zr, c)) != x[i]:
            fails.append(f"Z c != x at block {i}")
    if sum(c) != 1:
        fails.append("coefficients do not sum to 1")
    if min(c) != cert.margin or not cert.margin > 0:
        fails.append("min coefficient is not a positive margin")
    return fails
