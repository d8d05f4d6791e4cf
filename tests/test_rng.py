"""Philox streams: one generator re-keyed per trial draws what a fresh stream draws."""

from __future__ import annotations

import numpy as np

from statetrees.rng import stream, streams


def _draws(rng: np.random.Generator) -> tuple:
    return (rng.integers(0, 2, size=(3, 7)).tolist(), rng.permutation(11).tolist(),
            rng.choice(40, size=9, replace=False).tolist(), rng.integers(0, 1 << 62).item(), rng.random())


def test_streams_draw_what_a_fresh_stream_draws():
    for seed in (0, 7, (1 << 63) - 1, 1 << 63, (1 << 64) - 1, (1 << 64) + 5, -3):
        got = [_draws(rng) for rng in streams(seed, 6)]
        assert got == [_draws(stream(seed, t)) for t in range(6)], seed
        # the key holds the index mod 2^64: indices past 2^64 name the same streams
        assert got == [_draws(stream(seed, (1 << 64) + t)) for t in range(6)], seed


def test_streams_rekey_whatever_the_last_trial_drew():
    # a trial that stops mid-buffer (one 32-bit draw) must not leak into the next
    gens = streams(11, 3)
    next(gens).integers(0, 2, dtype=np.uint32)
    assert _draws(next(gens)) == _draws(stream(11, 1))
    assert [_draws(g) for g in streams(11, 0)] == []
