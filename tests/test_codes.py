"""GF(2^d) field arithmetic and the Hadamard-encoded binary Vandermonde matrix."""

from __future__ import annotations

import pytest

from statetrees.codes import (GF2dField, VandermondeParams,
                              build_binary_vandermonde, field, gf2d_mul,
                              gf2d_pow, is_irreducible, min_nonzero_image_weight,
                              smallest_irreducible)
from statetrees.gf2 import rank_gf2
from statetrees.rng import stream


def test_smallest_irreducibles():
    # x, x^2+x+1, x^3+x+1, x^4+x+1, x^5+x^2+1, x^6+x+1
    assert [smallest_irreducible(d) for d in range(1, 7)] == [2, 7, 11, 19, 37, 67]
    for d in range(1, 9):
        p = smallest_irreducible(d)
        assert p.bit_length() - 1 == d
        assert is_irreducible(p)
        for q in range(1 << d, p):
            assert not is_irreducible(q)


def test_field_multiplication_properties():
    f = field(4)
    for a in range(16):
        assert gf2d_mul(f, a, 1) == a
        assert gf2d_mul(f, a, 0) == 0
    rng = stream(8)
    for _ in range(50):
        a, b, c = (int(x) for x in rng.integers(0, 16, 3))
        assert gf2d_mul(f, a, b) == gf2d_mul(f, b, a)
        assert gf2d_mul(f, a, gf2d_mul(f, b, c)) == gf2d_mul(f, gf2d_mul(f, a, b), c)
    # nonzero elements form a group: a^(2^d - 1) = 1
    for a in range(1, 16):
        assert gf2d_pow(f, a, 15) == 1


def test_vandermonde_params_guards():
    with pytest.raises(ValueError):
        VandermondeParams(16, 3, 4)  # needs n < 2^d
    with pytest.raises(ValueError):
        VandermondeParams(7, 7, 3)  # needs k < n


def test_vandermonde_k1_weights():
    # k=1: every block is H m(1) = H, so any nonzero u has weight n 2^(d-1)
    params = VandermondeParams(6, 1, 3)
    vbin = build_binary_vandermonde(params)
    assert (vbin.k, vbin.n) == (6 * 8, 3)
    assert min_nonzero_image_weight(vbin) == 6 * 4


def test_vandermonde_min_weight_exhaustive():
    params = VandermondeParams(7, 2, 3)
    vbin = build_binary_vandermonde(params)
    assert min_nonzero_image_weight(vbin) >= (7 - 2) * 4
    params = VandermondeParams(15, 3, 4)
    vbin = build_binary_vandermonde(params)
    assert (vbin.k, vbin.n) == (15 * 16, 12)
    assert min_nonzero_image_weight(vbin) >= (15 - 3) * 8
    assert rank_gf2(vbin) == 12


def test_invalid_field():
    with pytest.raises(ValueError):
        GF2dField(3, 0b1001)  # x^3 + 1 = (x+1)(x^2+x+1)


def _loop_vandermonde_rows(d: int) -> list[int]:
    """The rows of labels 1 .. 2^d - 1 at k = 2^d - 2, bit by bit: block
    column t of m(i^j) is i^j * x^t, and row u's bit (j, t) its parity with u."""
    f = field(d)
    k = (1 << d) - 2
    parity = [[bin(c & u).count("1") & 1 for u in range(1 << d)] for c in range(1 << d)]
    rows = []
    for i in range(1, 1 << d):
        block_cols = [gf2d_mul(f, gf2d_pow(f, i, j), 1 << t) for j in range(k) for t in range(d)]
        for u in range(1 << d):
            r = 0
            for c in block_cols:
                r = (r << 1) | parity[c][u]
            rows.append(r)
    return rows


def test_vandermonde_rows_match_the_bit_by_bit_loop():
    # labels and powers come first in a row, so (n, k)'s rows are the first
    # n 2^d rows of the widest matrix's, each cut to its leading kd bits;
    # every (n, k) up to d = 5, and at d = 6 (1891 pairs take 13 s) every k
    # at n = 63 and every n at k = 1 and n - 1
    for d in range(2, 7):
        wide, top = _loop_vandermonde_rows(d), (1 << d) - 2
        pairs = [(n, k) for n in range(2, 1 << d) for k in range(1, n)]
        if d == 6:
            pairs = [(n, k) for n, k in pairs if n == 63 or k in (1, n - 1)]
        for n, k in pairs:
            vbin = build_binary_vandermonde(VandermondeParams(n, k, d, 0))
            assert (vbin.k, vbin.n) == (n << d, k * d)
            assert list(vbin.rows) == [r >> (top - k) * d for r in wide[:n << d]], (n, k, d)
