"""GF(2^d) arithmetic and the Hadamard-encoded binary Vandermonde matrix.

The field GF(2^d) is F_2[x] modulo the lexicographically smallest
irreducible of degree d (found by exhaustive search and cached).
Elements are ints whose bit i is the coefficient of x^i.  Stacking the
Hadamard encodings of the multiplication maps q -> i^j q for labels
i = 1..n and powers j = 0..k-1 gives an (n 2^d) x (kd) binary matrix
whose nonzero images all have weight at least (n - k) 2^(d-1): a
Reed-Solomon code concatenated with the Hadamard code.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gf2 import BitMatrix, to_numpy

_IRREDUCIBLE_MAX_D = 16


def _poly_deg(p: int) -> int:
    return p.bit_length() - 1


def _poly_mod(a: int, m: int) -> int:
    dm = _poly_deg(m)
    while _poly_deg(a) >= dm and a:
        a ^= m << (_poly_deg(a) - dm)
    return a


def _poly_mul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def is_irreducible(p: int) -> bool:
    """Exhaustive trial division by every polynomial of degree 1..deg/2."""
    d = _poly_deg(p)
    if d <= 0:
        return False
    for q in range(2, 1 << (d // 2 + 1)):
        if _poly_deg(q) >= 1 and q != p and _poly_mod(p, q) == 0:
            return False
    return True


@lru_cache(maxsize=None)
def smallest_irreducible(d: int) -> int:
    if not 1 <= d <= _IRREDUCIBLE_MAX_D:
        raise ValueError(f"degree must be in 1..{_IRREDUCIBLE_MAX_D}")
    for cand in range(1 << d, 1 << (d + 1)):
        if is_irreducible(cand):
            return cand
    raise AssertionError("no irreducible found")  # cannot happen


@dataclass(frozen=True)
class GF2dField:
    """F_2[x] mod an irreducible of degree d; elements are d-bit ints."""

    d: int
    modulus: int

    def __post_init__(self):
        if _poly_deg(self.modulus) != self.d:
            raise ValueError("modulus degree does not match d")
        if not is_irreducible(self.modulus):
            raise ValueError(f"modulus {self.modulus:#b} is reducible")

    @property
    def size(self) -> int:
        return 1 << self.d


def field(d: int) -> GF2dField:
    return GF2dField(d, smallest_irreducible(d))


def gf2d_mul(f: GF2dField, a: int, b: int) -> int:
    if not (0 <= a < f.size and 0 <= b < f.size):
        raise ValueError("elements must be d-bit values")
    return _poly_mod(_poly_mul(a, b), f.modulus)


def gf2d_pow(f: GF2dField, a: int, e: int) -> int:
    out = 1
    base = a
    while e:
        if e & 1:
            out = gf2d_mul(f, out, base)
        base = gf2d_mul(f, base, base)
        e >>= 1
    return out


def mult_matrix(f: GF2dField, a: int) -> BitMatrix:
    """The d x d Boolean matrix sending q (coefficient vector) to a*q.

    Row i / column t hold the coefficient of x^i in a * x^t, so the
    matrix acts on vectors written with vec_of_element.
    """
    cols = [gf2d_mul(f, a, 1 << t) for t in range(f.d)]
    rows = []
    for i in range(f.d):
        r = 0
        for t in range(f.d):
            r = (r << 1) | ((cols[t] >> i) & 1)
        rows.append(r)
    return BitMatrix(f.d, f.d, tuple(rows))


def vec_of_element(q: int, d: int) -> int:
    """Field element -> column vector in BitMatrix bit order (coord 0 first)."""
    v = 0
    for j in range(d):
        v = (v << 1) | ((q >> j) & 1)
    return v


def element_of_vec(v: int, d: int) -> int:
    q = 0
    for j in range(d):
        q |= ((v >> (d - 1 - j)) & 1) << j
    return q


def hadamard_encode(v: int, d: int) -> int:
    """Length-2^d Hadamard codeword of a d-bit vector, packed MSB-first.

    Bit u of the codeword (counting entry u from the most significant
    end) is <v, u> mod 2.
    """
    if not 0 <= v < (1 << d):
        raise ValueError("v must be a d-bit value")
    out = 0
    for u in range(1 << d):
        out = (out << 1) | (bin(v & u).count("1") & 1)
    return out


@dataclass(frozen=True)
class VandermondeParams:
    n: int
    k: int
    d: int
    c: int = 8

    def __post_init__(self):
        if self.n < 2 or not 1 <= self.k < self.n:
            raise ValueError("need 1 <= k < n and n >= 2")
        if self.n >= (1 << self.d):
            raise ValueError("need n < 2^d so labels 1..n are distinct nonzero field elements")
        if self.c < 0:
            raise ValueError("slack c must be nonnegative")


def build_binary_vandermonde(params: VandermondeParams) -> BitMatrix:
    """(n 2^d) x (kd) matrix of blocks H m(i^j), i = 1..n, j = 0..k-1."""
    f = field(params.d)
    n, k, d = params.n, params.k, params.d
    rows = []
    for i in range(1, n + 1):
        powers = [gf2d_pow(f, i, j) for j in range(k)]
        # column t of m(i^j) is the element i^j * x^t
        block_cols = [[gf2d_mul(f, p, 1 << t) for t in range(d)] for p in powers]
        for u in range(1 << d):
            r = 0
            for j in range(k):
                for t in range(d):
                    r = (r << 1) | (bin(block_cols[j][t] & u).count("1") & 1)
            rows.append(r)
    return BitMatrix(n * (1 << d), k * d, tuple(rows))


def min_nonzero_image_weight(vbin: BitMatrix) -> int:
    """min over u != 0 of |V u|, exhaustively (needs modest column count)."""
    cols = vbin.n
    if cols > 20:
        raise ValueError("exhaustive image sweep capped at 20 columns")
    m = to_numpy(vbin)
    us = np.arange(1, 1 << cols, dtype=np.uint64)
    ubits = ((us[:, None] >> np.arange(cols - 1, -1, -1, dtype=np.uint64)[None, :]) & 1).astype(np.uint8)
    images = (ubits @ m.T) % 2
    return int(images.sum(axis=1).min())


__all__ = [
    "GF2dField", "VandermondeParams", "build_binary_vandermonde",
    "element_of_vec", "field", "gf2d_mul", "gf2d_pow", "hadamard_encode",
    "is_irreducible", "min_nonzero_image_weight", "mult_matrix",
    "smallest_irreducible", "vec_of_element",
]
