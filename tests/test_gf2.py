"""GF(2) linear algebra: ranks, kernels, solving, coset enumeration."""

from __future__ import annotations

import pytest

from statetrees.errors import EmptyCosetError, OversizeError
from statetrees.gf2 import (BitMatrix, Coset, enumerate_coset, from_numpy,
                            invertibility_product, kernel_basis, random_bitmatrix,
                            rank_gf2, solve, to_numpy)


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
