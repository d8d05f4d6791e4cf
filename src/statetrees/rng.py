"""Deterministic random streams for experiments.

Every randomized routine in this package draws from a Philox4x64
counter-based generator keyed by a 64-bit master seed plus a stream
index (usually a trial number).  Streams with distinct (seed, index)
pairs are statistically independent by construction, so experiment
trials can be generated in any order, or in parallel, and still
reproduce bit-identically.

`stream` builds the generator of one (seed, index).  A trial loop takes
`streams` instead: one generator re-keyed to (seed, 0), (seed, 1), ...
through the Philox state setter, which draws the same bits as a fresh
`stream` for each index at a quarter of its cost (a fresh Philox also
draws OS entropy for a seed sequence it never uses).
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

_MASK64 = (1 << 64) - 1


def _key(seed: int, index: int) -> np.ndarray:
    return np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Return the Philox generator for (seed, index)."""
    return np.random.Generator(np.random.Philox(key=_key(seed, index)))


def streams(seed: int, count: int) -> Iterator[np.random.Generator]:
    """The generators of (seed, 0) ... (seed, count - 1), in order.  They
    are one object re-keyed before each yield, so a trial must finish its
    draws before the loop moves on."""
    gen = stream(seed)
    bits = gen.bit_generator
    fresh = bits.state  # counter 0 and an empty buffer: what Philox(key=...) starts from
    for t in range(count):
        fresh["state"]["key"] = _key(seed, t)
        bits.state = fresh
        yield gen


__all__ = ["stream", "streams"]
