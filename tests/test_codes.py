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
