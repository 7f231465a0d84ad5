"""Command-line interface.

Subcommands:
  analyze FILE                     geometric conditions and verdict
  sample FILE --n N --seed S       draw a graph, write it as JSON
  decompose FILE --n N --seed S    run the constructive pipeline on a sample
  montecarlo FILE --n N --trials T --seed S
                                   estimate the decomposition probability
  refine FILE --block I --at T     insert a breakpoint, write the refined file

Exit codes: 0 success, 1 a pipeline Failure outcome, 2 bad input (including
an unreadable input, an unwritable output path or refused memory).  The
input file and the command-line values, output paths included (one that is
a directory or lies in a missing directory), are checked before anything
runs, and only that step's `ValueError` is bad input: one raised later is a
bug and ends in a traceback.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import stat
import sys

from . import io
from ._seeds import derive
from .construct import HEADINGS
from .driver import Verdict, analyze, montecarlo, plan, run_pipeline
from .model import check_count, saturate, skeleton
from .polytope import Membership
from .realize import graph_has_decomposition
from .refine import refine_once, split_point
from .sampling import sample_graph

_VERDICT_TEXT = {
    Verdict.PREDICTS_H: "H-property predicted",
    Verdict.PREDICTS_NOT_H: "H-property ruled out",
    Verdict.INCONCLUSIVE: "inconclusive",
}


def _cmd_analyze(w, args) -> int:
    report = analyze(w)
    s = skeleton(w)
    print(
        f"skeleton: q={s.node_count}, loops={len(s.loops)}, pair edges={len(s.edges)},"
        f" {'connected' if report.connected else 'disconnected'}"
    )
    print(f"condition A (odd cycle): {'yes' if report.condition_a else 'no'}")
    if report.condition_b_status is None:
        print("condition B (interior membership): skipped (disconnected skeleton)")
        for k, sub in enumerate(report.components):
            print(
                f"  component {k}: condition A {'yes' if sub.condition_a else 'no'},"
                f" membership {sub.condition_b_status.value}, {_VERDICT_TEXT[sub.verdict]}"
            )
    else:
        extra = ""
        if report.certificate and report.certificate.margin is not None:
            extra = f" (margin {report.certificate.margin})"
        print(f"condition B (interior membership): {report.condition_b_status.value}{extra}")
        if report.condition_b_status is Membership.BOUNDARY and report.condition_a:
            print(
                "note: boundary case; the decomposition probability need not"
                " converge to 0 or 1"
            )
    print(f"verdict: {_VERDICT_TEXT[report.verdict]}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
    return 0


def _cmd_sample(w, args) -> int:
    g = sample_graph(w, args.n, args.seed)
    io.dump_graph(g, args.out)
    print(f"sampled n={g.n} graph with {g.edge_count} edges -> {args.out}")
    return 0


def _print_decomposition(tally, decomposition) -> None:
    print(f"tally matrix (counts over n={tally.scale}):")
    for row in tally.counts:
        print("  " + " ".join(f"{v:4d}" for v in row))
    mp = tally.min_positive()
    print(f"min positive tally entry: {mp}")
    two = [c for c in decomposition.cycles if len(c) == 2]
    longer = [c for c in decomposition.cycles if len(c) > 2]
    print(f"cycles: {len(two)} two-cycles, {len(longer)} longer")
    for c in two:
        print(f"  2-cycle: {c[0]} <-> {c[1]}")
    for c in longer:
        print(f"  {len(c)}-cycle: " + " -> ".join(str(v) for v in c) + f" -> {c[0]}")


def _cmd_decompose(w, args) -> int:
    # saturate(w): w's blocks and coordinates, every supported pair an edge
    g = sample_graph(saturate(w) if args.saturated else w, args.n, args.seed)
    out = run_pipeline(plan(w), g, derive(args.seed, "decompose"))
    if not out.ok:
        print(f"{HEADINGS[out.failure.stage]}: {out.failure}", file=sys.stderr)
        return 1
    graph_has_decomposition(g, out.decomposition)  # raises on an arc that is not an edge
    _print_decomposition(out.tally, out.decomposition)
    return 0


def _cmd_montecarlo(w, args) -> int:
    report = montecarlo(w, args.n, args.trials, args.seed, jobs=args.jobs)
    print(f"n={report.n} trials={report.trials} master_seed={report.master_seed}")
    print(
        f"oracle: {report.successes_oracle}/{report.trials}"
        f" estimate={report.estimate:.4f}"
        f" wilson95=[{report.ci_low:.4f}, {report.ci_high:.4f}]"
    )
    print(f"constructive: {report.successes_constructive}/{report.trials}")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            fh.write(report.to_csv())
        print(f"per-trial rows -> {args.csv}")
    return 0


def _cmd_refine(w, args) -> int:
    rec = refine_once(w, args.block, args.at)
    io.dump_graphon(rec.refined, args.out)
    print(f"split block {rec.split_block} at {rec.split_point} -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamdec",
        description="Decide geometric decomposition conditions for step-graphons "
        "and construct Hamiltonian decompositions in sampled graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="conditions and verdict for a graphon file")
    p.add_argument("file")
    p.add_argument("--json", help="also write a machine-readable report")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("sample", help="sample a graph and write it as JSON")
    p.add_argument("file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("decompose", help="sample and run the constructive pipeline")
    p.add_argument("file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--saturated", action="store_true", help="decompose the saturated graph")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("montecarlo", help="estimate the decomposition probability")
    p.add_argument("file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--csv", help="write per-trial rows")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.set_defaults(func=_cmd_montecarlo)

    p = sub.add_parser("refine", help="insert a breakpoint into a graphon file")
    p.add_argument("file")
    p.add_argument("--block", type=int, required=True)
    p.add_argument("--at", required=True, help="split point, e.g. 0.5 or 1/3")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_refine)
    return parser


def _check_output(path: str) -> None:
    """Raise, for a path that is a directory or whose parent directory does
    not exist, the OSError that opening it for writing would raise."""
    if os.path.isdir(path):
        code = errno.EISDIR
    else:
        try:
            if stat.S_ISDIR(os.stat(os.path.dirname(path) or os.curdir).st_mode):
                return
            code = errno.ENOTDIR
        except OSError as exc:
            code = exc.errno
    raise OSError(code, os.strerror(code), path)


def _checked_graphon(args):
    """The input graphon, with the command-line values checked against it."""
    w = io.load_graphon(args.file)
    for name in ("n", "trials", "jobs"):
        if name in args:
            check_count(getattr(args, name), name)
    if "seed" in args:
        derive(args.seed)  # raises unless the seed lies in [0, 2**64)
    if args.command == "refine":
        split_point(w, args.block, args.at)
    for name in ("csv", "json", "out"):
        if getattr(args, name, None) is not None:
            _check_output(getattr(args, name))
    return w


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    bad_input = (ValueError, OSError, MemoryError)  # while checking; FormatError is a ValueError
    try:
        w = _checked_graphon(args)
        bad_input = (io.FormatError, OSError, MemoryError)  # in the run, a ValueError is a bug
        return args.func(w, args)
    except bad_input as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
