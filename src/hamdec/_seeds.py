"""Deterministic derivation of per-purpose random streams.

Every random stream in the package is keyed by a 64-bit master seed plus a
sequence of purpose tags ("coords", "edges", ("trial", 17), ...).  Tags are
hashed with FNV-1a and folded into the running state with splitmix64, so
identical (seed, tags) yield bit-identical streams on any platform and in
any process.  Derived seeds feed numpy's PCG64 generator.
"""

from __future__ import annotations

import numpy as np

from .model import as_int

_MASK64 = (1 << 64) - 1

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def derive(master: int, *tags: object) -> int:
    """Derive a stream seed from a master seed in [0, 2**64), an integer
    by `model`'s rule, and purpose tags."""
    state = as_int(master, "seed")
    if not 0 <= state <= _MASK64:
        raise ValueError(f"seed {master} is outside [0, 2**64)")
    for tag in tags:
        state = splitmix64(state ^ fnv1a64(str(tag).encode("utf-8")))
    return state


def generator(seed: int) -> np.random.Generator:
    """PCG64 generator for a derived seed (the package-wide PRNG choice)."""
    return np.random.Generator(np.random.PCG64(seed))
