"""The benchmark's workloads and the inputs each one generates from its seed.

Every workload runs both of the package's operations, interleaved, so every
end-to-end metric is measured on each and over the whole run: its primary
operation for three quarters of the busy time, the other one for the rest.

  mc-tri-n1000       Monte Carlo on the triangle-1/2 graphon at n=1000: the
                     existence oracle and adjacency building dominate.
  analyze-sweep      `analyze` on 100 generated interior graphons, four of
                     each q from 8 to 32: the LP and the model layer.  Its
                     Monte Carlo part, on a q=8 graphon at n=200, is where
                     phase-2 matchings fail and realizations run out of
                     retries.  The graphons are the same for every seed:
                     the exact LP's time varies ~2x between graphons of
                     one q, so a seed-drawn set of 100 moves the latency
                     percentiles by ~30% from seed to seed.  The seed
                     orders them and drives the Monte Carlo part.
  mc-mix-n200-jobs2  Monte Carlo on ER-1/2, triangle-1/2 and bipartite-0.3
                     at n=200 with two worker processes: the process pool
                     and per-trial fixed costs.

The Monte Carlo workloads analyze their own graphons and, in alternate
units, a fixed set of generated ones, ten of each q from 3 to 12; their
seed drives the trials.  A traced run analyzes only their own graphons, in
one unit, so per-trial layer figures stay those of a trial.  Graphon sizes in an `analyze` set are spread evenly, not in a few
groups: on a host whose speed switches between two levels, a percentile
that sits on the gap between two groups reads one level or the other.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from hamdec.model import StepGraphon

from .graphons import BIP_03, ER_HALF, TRI_HALF, check_interior, interior_graphon

PREDICTS_H = "predicts-h"
PREDICTS_NOT_H = "predicts-not-h"

Q8_GRAPHON_SEED = 1  # a generator seed, not a workload seed
SWEEP_Q = range(8, 33)
SWEEP_ROUNDS = 4  # graphons per q; one `analyze` unit is one round over SWEEP_Q
SMALL_Q = range(3, 13)
SMALL_PER_Q = 10


@dataclass(frozen=True)
class Item:
    label: str
    graphon: StepGraphon
    verdict: str  # what `analyze` must say


@dataclass(frozen=True)
class Workload:
    name: str
    primary: str  # "montecarlo" or "analyze"
    n: int  # Monte Carlo graph size
    trials_per_call: int  # trials in one timed `montecarlo` call
    jobs: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc-tri-n1000", "montecarlo", 1000, 1, 1),
        Workload("analyze-sweep", "analyze", 200, 4, 1),
        Workload("mc-mix-n200-jobs2", "montecarlo", 200, 40, 2),
    )
}


def mix_seed(*parts) -> int:
    """A 63-bit seed from any printable parts, the same on every platform."""
    h = hashlib.blake2b("|".join(map(str, parts)).encode("utf-8"), digest_size=8)
    return int.from_bytes(h.digest(), "big") >> 1


def _generated(q: int, seed: int, label: str) -> Item:
    g = interior_graphon(q, seed)
    fails = check_interior(g)
    if fails:
        raise RuntimeError(f"generated graphon {label} is not interior: {fails}")
    return Item(label, g.graphon, PREDICTS_H)


def _small() -> list[Item]:
    return [
        _generated(q, mix_seed("small", q, i), f"small-q{q}-{i}")
        for q in SMALL_Q
        for i in range(SMALL_PER_Q)
    ]


def inputs(name: str, seed: int) -> tuple[list[Item], list[list[Item]]]:
    """The Monte Carlo graphons of a workload, and its `analyze` graphons as
    a list of units (unit k analyzes group k mod len)."""
    tri = Item("tri", TRI_HALF, PREDICTS_H)
    if name == "mc-tri-n1000":
        return [tri], [[tri], _small()]
    if name == "analyze-sweep":
        order = random.Random(mix_seed("order", seed))
        rounds = []
        for r in range(SWEEP_ROUNDS):
            group = [_generated(q, mix_seed("sweep", q, r), f"q{q}-{r}") for q in SWEEP_Q]
            order.shuffle(group)
            rounds.append(group)
        return [_generated(8, Q8_GRAPHON_SEED, "q8")], rounds
    if name == "mc-mix-n200-jobs2":
        mix = [Item("er", ER_HALF, PREDICTS_H), tri, Item("bip", BIP_03, PREDICTS_NOT_H)]
        return mix, [mix, _small()]
    raise KeyError(name)
