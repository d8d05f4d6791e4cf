"""Exact linear algebra over GF(2) on integer-packed bit rows.

A k x n matrix is stored as k Python ints; bit (n-1-j) of row i holds
entry (i, j), so a row prints naturally as a 0/1 string and a vector's
integer value equals its index under the package-wide convention that
variable 1 is the most significant bit.  Python ints give arbitrary-width
packed words, so elimination works one row-XOR at a time.

This module owns that layout for the package: `_pack` packs the rows of
a 0/1 array and `to_numpy` unpacks a matrix, `_span` lists a span in
sorted order and `_reduce` reduces a vector against an echelon basis
(`_echelon`), so the coset side calls these rather than re-deriving them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCosetError, OversizeError, ParseError
from .rng import stream

COSET_CAP = 1 << 20


@dataclass(frozen=True)
class BitMatrix:
    """k x n matrix over GF(2), rows packed MSB-first into ints."""

    k: int
    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1 or self.k < 0:
            raise ValueError(f"bad shape {self.k}x{self.n}")
        if len(self.rows) != self.k:
            raise ValueError("row count does not match k")
        top = 1 << self.n
        for r in self.rows:
            if not 0 <= r < top:
                raise ValueError("row has bits outside the n columns")

    def columns(self) -> list[int]:
        """The n columns, each packed MSB-first over the k rows."""
        return _pack(to_numpy(self).T)

    def mul_vec(self, x: int) -> int:
        """A @ x over GF(2); x is an n-bit int, result a k-bit int."""
        out = 0
        for r in self.rows:
            out = (out << 1) | ((r & x).bit_count() & 1)
        return out


def _echelon(rows: list[int]) -> list[int]:
    """Forward-eliminate, returning pivot rows sorted by leading bit."""
    basis: dict[int, int] = {}
    for r in rows:
        while r:
            lead = r.bit_length() - 1
            if lead in basis:
                r ^= basis[lead]
            else:
                basis[lead] = r
                break
    return [basis[lead] for lead in sorted(basis, reverse=True)]


def _reduce(x: int, basis: list[int]) -> int:
    """x reduced against an echelon basis (leading bits descending, as
    _echelon gives it): each basis vector clears its own leading bit, so
    the result is 0 iff x lies in the span."""
    for v in basis:
        x = min(x, x ^ v)
    return x


def _span(basis: list[int], start: int = 0) -> list[int]:
    """start ^ span(basis), in increasing order; the basis vectors must be
    independent for the elements to be distinct."""
    out = [start]
    for v in basis:
        out += [x ^ v for x in out]
    out.sort()
    return out


def _reduced(rows: list[int]) -> list[int]:
    """Reduced row echelon form: _echelon's rows, each leading bit cleared
    from the rows above it."""
    rows = _echelon(rows)
    for i in range(len(rows)):
        lead = rows[i].bit_length() - 1
        for j in range(i):
            if (rows[j] >> lead) & 1:
                rows[j] ^= rows[i]
    return rows


def rank_gf2(a: BitMatrix) -> int:
    return len(_echelon(list(a.rows)))


def row_space_basis(a: BitMatrix) -> list[int]:
    """Echelon basis of the row space, as n-bit ints."""
    return _echelon(list(a.rows))


def kernel_basis(a: BitMatrix) -> list[int]:
    """Basis of {x : Ax = 0}, each vector an n-bit int, n - rank of them."""
    n = a.n
    rows = _reduced(list(a.rows))
    pivot_bits = [r.bit_length() - 1 for r in rows]
    pivot_set = set(pivot_bits)
    basis = []
    for free_bit in range(n - 1, -1, -1):
        if free_bit in pivot_set:
            continue
        v = 1 << free_bit
        for r, pb in zip(rows, pivot_bits):
            if (r >> free_bit) & 1:
                v |= 1 << pb
        basis.append(v)
    return basis


def solve(a: BitMatrix, b: int) -> int | None:
    """Any particular solution of Ax = b, or None; b is a k-bit int."""
    if a.k == 0:
        return 0 if b == 0 else None
    if not 0 <= b < (1 << a.k):
        raise ValueError("b does not fit k bits")
    # augment: shift row left, append b bit as LSB
    aug = []
    for i, r in enumerate(a.rows):
        aug.append((r << 1) | ((b >> (a.k - 1 - i)) & 1))
    rows = _reduced(aug)
    x = 0
    for r in rows:
        lead = r.bit_length() - 1
        if lead == 0:
            return None  # row 0...0 | 1
        if r & 1:
            x |= 1 << (lead - 1)
    return x


@dataclass(frozen=True)
class Coset:
    """The affine solution set {x : Ax = b}; checked nonempty."""

    a: BitMatrix
    b: int

    def __post_init__(self):
        if solve(self.a, self.b) is None:
            raise EmptyCosetError(f"Ax = {self.b:0{self.a.k}b} has no solution")

    @property
    def n(self) -> int:
        return self.a.n

    def size(self) -> int:
        return 1 << (self.a.n - rank_gf2(self.a))


def enumerate_coset(c: Coset) -> list[int]:
    """All solutions of Ax = b in increasing (lexicographic) order."""
    count = c.size()
    if count > COSET_CAP:
        raise OversizeError(f"coset has {count} elements, cap is {COSET_CAP}")
    x0 = solve(c.a, c.b)
    assert x0 is not None
    return _span(kernel_basis(c.a), x0)


def to_numpy(a: BitMatrix):
    """(k, n) uint8 array of the entries."""
    width = -(-a.n // 8)  # bytes per row, the pad bits at the end
    data = b"".join((r << (-a.n % 8)).to_bytes(width, "big") for r in a.rows)
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8).reshape(a.k, width), axis=1, count=a.n)


# columns packed per int64 shift-sum in _pack: their sum stays below 2^62
_PACK_COLS = 62


def _pack(bits: np.ndarray) -> list[int]:
    """Each row of a 2-D 0/1 array as an int of any width, its first entry
    the most significant bit: one int64 shift-sum per _PACK_COLS columns,
    the words joined by shifts."""
    out = [0] * len(bits)
    for lo in range(0, bits.shape[1], _PACK_COLS):
        part = bits[:, lo:lo + _PACK_COLS].astype(np.int64)
        w = part.shape[1]
        words = (part << np.arange(w - 1, -1, -1)).sum(axis=1).tolist()
        out = [o << w | x for o, x in zip(out, words)] if lo else words
    return out


def from_numpy(arr) -> BitMatrix:
    """Matrix of a (k, n) array, entries taken mod 2; k may be 0."""
    k, n = arr.shape
    return BitMatrix(k, n, tuple(_pack(arr & 1)))


def random_bitmatrix(k: int, n: int, seed: int, index: int = 0) -> BitMatrix:
    """Uniform k x n matrix from the Philox stream (seed, index)."""
    return from_numpy(stream(seed, index).integers(0, 2, size=(k, n)))


def invertibility_product(k: int) -> float:
    """prod_{i=1..k} (1 - 2^-i), the chance a random k x k matrix is invertible."""
    p = 1.0
    for i in range(1, k + 1):
        p *= 1.0 - 0.5**i
    return p


def format_matrix(a: BitMatrix, b: int | None = None) -> str:
    """Text form: 'k n' header, one 0/1 row per line, optional 'b BITS' line."""
    lines = [f"{a.k} {a.n}"]
    lines += [format(r, f"0{a.n}b") for r in a.rows]
    if b is not None:
        lines.append(f"b {b:0{a.k}b}" if a.k else "b")  # k bits, none at k = 0
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> tuple[BitMatrix, int | None]:
    raw = text.splitlines()
    line_nos = [i + 1 for i, ln in enumerate(raw) if ln.strip() and not ln.strip().startswith(";")]
    lines = [raw[i - 1].strip() for i in line_nos]
    if not lines:
        raise ParseError("empty matrix text")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"matrix header must be 'k n', got {lines[0]!r}", line_nos[0], 1)
    try:
        k, n = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError(f"matrix header must be 'k n', got {lines[0]!r}", line_nos[0], 1) from None
    cols = [m.start() + 1 for m in re.finditer(r"\S+", raw[line_nos[0] - 1])]
    for what, count, col in zip(("row", "column"), (k, n), cols):
        if count < 0:
            raise ParseError(f"{what} count {count} is negative", line_nos[0], col)
    if len(lines) < 1 + k:
        raise ParseError(f"expected {k} rows, found {len(lines) - 1}", line_nos[0], cols[0])
    rows = []
    for i in range(k):
        s = lines[1 + i]
        if len(s) != n or set(s) - {"0", "1"}:
            raise ParseError(f"row must be {n} chars of 0/1, got {s!r}", line_nos[1 + i], 1)
        rows.append(int(s, 2))
    b = None
    at = 1 + k
    if at < len(lines) and lines[at].startswith("b"):
        s = lines[at][1:].strip()
        if len(s) != k or set(s) - {"0", "1"}:
            raise ParseError(f"b line must carry {k} chars of 0/1, got {s!r}", line_nos[at], 1)
        b = int(s, 2) if k else 0
        at += 1
    if at < len(lines):
        raise ParseError(f"unexpected trailing line {lines[at]!r}", line_nos[at], 1)
    return BitMatrix(k, n, tuple(rows)), b


__all__ = [
    "BitMatrix",
    "Coset",
    "COSET_CAP",
    "enumerate_coset",
    "format_matrix",
    "invertibility_product",
    "kernel_basis",
    "parse_matrix",
    "random_bitmatrix",
    "rank_gf2",
    "row_space_basis",
    "solve",
    "to_numpy",
    "from_numpy",
]
