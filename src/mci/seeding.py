"""Deterministic RNG derivation.

Every random quantity in the package is drawn from a generator derived from a
user-visible u64 seed plus a short label path, so that identical (inputs, seed)
always reproduce bitwise-identical outputs regardless of call order.
"""

from __future__ import annotations

import numpy as np

# numpy loads numpy.random on first use; every mci run draws from it, so it
# loads with the package instead of in the middle of the first sweep.
from numpy.random import PCG64, Generator, SeedSequence

# Stable label -> integer mapping; labels keep derivations independent without
# the caller having to manage seed arithmetic.
_LABELS = {
    "data": 1,
    "weights": 2,
    "noise": 3,
    "test": 4,
    "kernel": 5,
    "cross": 6,
    "reference": 7,
    "directions": 8,
    "grid": 9,
}


def _encode(tag: int | str) -> int:
    if isinstance(tag, str):
        return _LABELS[tag]
    return int(tag)


def rng_from(seed: int, *tags: int | str) -> Generator:
    """Generator for (seed, *tags); independent streams for distinct paths."""
    ss = SeedSequence([int(seed), *(_encode(t) for t in tags)])
    return Generator(PCG64(ss))


def row_rng(seed: int, row: int, *tags: int | str) -> Generator:
    """Generator sub-seeded per row label, for per-entry noise draws."""
    return rng_from(seed, *tags, 10_000 + int(row))


def derive_seed(seed: int, *tags: int | str) -> int:
    """Fold (seed, tags) into a fresh integer seed for an independent stream."""
    ss = SeedSequence([int(seed), 7_777, *(_encode(t) for t in tags)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])
