"""GF(2) linear algebra: ranks, kernels, solving, coset enumeration, and
the bit layout helpers (packing, unpacking, spans, reduction)."""

from __future__ import annotations

import numpy as np
import pytest

from statetrees.errors import EmptyCosetError, OversizeError
from statetrees.gf2 import (BitMatrix, Coset, _echelon, _pack, _reduce, _span, enumerate_coset,
                            from_numpy, invertibility_product, kernel_basis, random_bitmatrix,
                            rank_gf2, solve, to_numpy)

# widths around the 62-column words of _pack, and the erasure check's cap
LAYOUT_WIDTHS = (1, 61, 62, 63, 124, 125, 1 << 14)


def ref_entry(a: BitMatrix, i: int, j: int) -> int:
    return (a.rows[i] >> (a.n - 1 - j)) & 1


def ref_columns(a: BitMatrix) -> list[int]:
    """Each column packed MSB-first over the rows, one entry at a time."""
    cols = []
    for j in range(a.n):
        c = 0
        for i in range(a.k):
            c = (c << 1) | ref_entry(a, i, j)
        cols.append(c)
    return cols


def test_rank_examples():
    assert rank_gf2(BitMatrix(3, 3, (0b100, 0b010, 0b001))) == 3
    assert rank_gf2(BitMatrix(2, 5, (0, 0))) == 0
    # third row is the xor of the first two
    assert rank_gf2(BitMatrix(3, 3, (0b110, 0b011, 0b101))) == 2


def test_rank_transpose():
    for trial in range(30):
        k = 1 + trial % 6
        n = 1 + (trial * 7) % 9
        a = random_bitmatrix(k, n, 40, trial)
        assert rank_gf2(a) == rank_gf2(from_numpy(to_numpy(a).T))


def test_kernel_basis():
    assert kernel_basis(BitMatrix(3, 3, (0b100, 0b010, 0b001))) == []
    for trial in range(30):
        k = 1 + trial % 4
        n = 2 + trial % 7
        a = random_bitmatrix(k, n, 41, trial)
        basis = kernel_basis(a)
        assert len(basis) == n - rank_gf2(a)
        for v in basis:
            assert a.mul_vec(v) == 0
        # independence: all 2^m combinations distinct
        span = {0}
        for v in basis:
            span |= {x ^ v for x in span}
        assert len(span) == 1 << len(basis)


def test_solve():
    assert BitMatrix(2, 3, (0b110, 0b011)).mul_vec(0b101) == 0b11  # rows: 1^0=1, 0^1=1
    assert solve(BitMatrix(2, 3, (0, 0)), 0b01) is None
    for trial in range(30):
        k = 1 + trial % 4
        n = 2 + trial % 6
        a = random_bitmatrix(k, n, 42, trial)
        x = trial % (1 << n)
        b = a.mul_vec(x)
        got = solve(a, b)
        assert got is not None and a.mul_vec(got) == b


def test_invertible_fraction_8x8():
    hits = sum(rank_gf2(random_bitmatrix(8, 8, 77, t)) == 8 for t in range(10_000))
    assert hits / 10_000 == pytest.approx(invertibility_product(8), abs=0.02)


def test_invertibility_product_values():
    assert invertibility_product(1) == 0.5
    v = invertibility_product(64)
    assert v == pytest.approx(0.2887880950866024, abs=1e-12)
    assert v > 0.288


def test_enumerate_coset_examples():
    c = Coset(BitMatrix(1, 2, (0b11,)), 0)
    assert enumerate_coset(c) == [0b00, 0b11]
    c = Coset(BitMatrix(3, 3, (0b100, 0b010, 0b001)), 0b101)
    assert enumerate_coset(c) == [0b101]


def test_enumerate_coset_matches_filter():
    for trial in range(25):
        n = 2 + trial % 9
        k = trial % (n + 1)
        a = random_bitmatrix(k, n, 43, trial)
        b = a.mul_vec(trial % (1 << n))
        c = Coset(a, b)
        got = enumerate_coset(c)
        want = [x for x in range(1 << n) if a.mul_vec(x) == b]
        assert got == want
        assert len(got) == 1 << (n - rank_gf2(a))


def test_coset_guards():
    with pytest.raises(EmptyCosetError):
        Coset(BitMatrix(2, 2, (0b11, 0b11)), 0b01)
    big = Coset(BitMatrix(0, 21, ()), 0)
    with pytest.raises(OversizeError):
        enumerate_coset(big)


def test_random_bitmatrix_deterministic():
    a = random_bitmatrix(4, 6, 99, 5)
    b = random_bitmatrix(4, 6, 99, 5)
    assert a == b
    assert a != random_bitmatrix(4, 6, 99, 6)


def test_numpy_bridge_roundtrip():
    a = random_bitmatrix(3, 7, 12)
    assert from_numpy(to_numpy(a)) == a
    # an empty matrix keeps its column count
    empty = BitMatrix(0, 5, ())
    assert from_numpy(to_numpy(empty)) == empty
    assert random_bitmatrix(0, 5, 12) == empty
    rng = np.random.default_rng(14)
    for t, n in enumerate(LAYOUT_WIDTHS):
        for k in (0, 1, 3, 64 if n < 1 << 14 else 4):
            a = random_bitmatrix(k, n, 13, 10 * t + k)
            arr = to_numpy(a)
            assert (arr.shape, arr.dtype) == ((k, n), np.uint8)
            assert arr.tolist() == [[ref_entry(a, i, j) for j in range(n)] for i in range(k)]
            cols = ref_columns(a)
            assert a.columns() == cols == _pack(arr.T)  # k = 0: n zero-width rows
            assert _pack(arr) == list(a.rows) == _pack(arr.astype(bool))
            assert from_numpy(arr) == a
            # entries are taken mod 2: negatives, large values and bools
            assert from_numpy(arr.astype(np.int64) + 2 * rng.integers(-5, 5, size=(k, n))) == a
            assert from_numpy(arr.astype(bool)) == a
            if k:
                assert from_numpy(arr.T).rows == tuple(cols)


def test_span_and_reduce_match_brute_force_membership():
    rng = np.random.default_rng(15)
    for t in range(60):
        width = 1 + t % 12
        vecs = [int(v) for v in rng.integers(0, 1 << width, size=t % 7)]
        basis = _echelon(vecs)
        members = {0}  # every XOR of a subset of vecs
        for v in vecs:
            members |= {x ^ v for x in members}
        start = int(rng.integers(0, 1 << width))
        assert _span(basis) == sorted(members)
        assert _span(basis, start) == sorted(x ^ start for x in members)
        for x in range(1 << width):
            r = _reduce(x, basis)
            assert (r == 0) == (x in members)
            assert r ^ x in members  # x moves by a span element only
