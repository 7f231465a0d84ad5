"""JSON file formats for graphons and sampled graphs.

Graphon files: {"sigma": [...], "values": [[...], ...]} where entries are
JSON numbers or strings.  Strings may be "p/q" fractions; decimal literals
are parsed as exact decimal fractions (0.3 means 3/10, not the binary
float), which keeps boundary classifications honest.  Written files use
"p/q" strings throughout.

Graph files: {"n": ..., "coords": [...], "blocks": [...], "edges": [[i,j],
...]}.  Coordinates are genuine floats and round-trip exactly through
JSON's repr-based formatting.  Graph files follow one rule for integer
fields, stated here alone: an integral JSON number (2 or 2.0) is an
integer in "n", "blocks" and "edges" alike, and true or a non-integral
number there raises FormatError.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .model import Partition, StepGraphon, _as_fraction
from .sampling import SampledGraph


class FormatError(ValueError):
    """A graphon or graph file does not match the documented schema."""


def _rational(value, where: str) -> Fraction:
    try:
        return _as_fraction(value)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{where}: {exc}") from exc


def _load_object(path, keys, **kwargs) -> dict:
    """The JSON object in a file, checked to have every field in `keys`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, **kwargs)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: top level must be an object")
    for key in keys:
        if key not in doc:
            raise FormatError(f"{path}: missing field '{key}'")
    return doc


def load_graphon(path) -> StepGraphon:
    # parse_float keeps the decimal text, so 0.3 arrives as Fraction("0.3")
    doc = _load_object(path, ("sigma", "values"), parse_float=Fraction)
    if not isinstance(doc["sigma"], list):
        raise FormatError(f"{path}: 'sigma' must be a list")
    sigma = [_rational(v, f"sigma[{i}]") for i, v in enumerate(doc["sigma"])]
    values = doc["values"]
    if not isinstance(values, list) or not all(isinstance(r, list) for r in values):
        raise FormatError(f"{path}: 'values' must be a matrix")
    rows = tuple(
        tuple(_rational(v, f"values[{i}][{j}]") for j, v in enumerate(row))
        for i, row in enumerate(values)
    )
    try:
        return StepGraphon(Partition(tuple(sigma)), rows)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def dump_graphon(w: StepGraphon, path) -> None:
    doc = {
        "sigma": [str(b) for b in w.partition.breakpoints],
        "values": [[str(v) for v in row] for row in w.values],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _integral_as_int(text: str):
    """A JSON number with a fraction or an exponent: an int when integral,
    else the float, which `model`'s integer rule refuses."""
    return int(value) if (value := float(text)).is_integer() else value


def load_graph(path) -> SampledGraph:
    doc = _load_object(path, ("n", "coords", "blocks", "edges"), parse_float=_integral_as_int)
    try:
        return SampledGraph.from_edges(doc["n"], doc["coords"], doc["blocks"], doc["edges"])
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def dump_graph(g: SampledGraph, path) -> None:
    doc = {
        "n": g.n,
        "coords": [float(c) for c in g.coords],
        "blocks": [int(b) for b in g.blocks],
        "edges": [[int(i), int(j)] for i, j in g.edges],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")
