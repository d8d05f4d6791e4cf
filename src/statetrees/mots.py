"""Exact manifestly-orthogonal tree size of coset states.

For the uniform superposition over {x : Ax = b}, the minimum leaf count
over manifestly orthogonal trees depends only on A and obeys

    M(A) = min over column splits (I, J) of
           2^(rank A_I + rank A_J - rank A) * (M(A_I) + M(A_J)),

with single-column base 2 for a zero column and 1 otherwise under the
default 'classical' leaf convention (leaves restricted to |0>/|1>).
Because a free leaf may hold (|0>+|1>)/sqrt(2) directly, the 'free'
convention uses base 1 for zero columns instead; both are implemented.

The solver runs the recurrence as a dynamic program over column-subset
bitmasks.  It fills the table one popcount layer at a time, so every
submask is final before a wider mask reads it, and scores all splits of
a layer's masks with numpy in fixed-size chunks: about 3^n / 2 splits,
two lookups each into one array of packed (rank, value) keys.  Visiting
masks by popcount follows the ranked layout of
Bjorklund-Husfeldt-Kaski-Koivisto's fast subset convolution; the
2^(rank deficit) factor makes this a structured min over splits, not a
min-plus subset convolution, so their running time does not carry over.
The dp runs over a stack of trials at once, the trials as the minor
axis of its arrays: the random-matrix experiment, which reads only
M(A), fills one dp for many small matrices and so pays numpy's per-call
cost once per chunk of splits, not once per trial; `mots_coset` is the
stack of one.  The solver then builds a witness tree from the dp's
splits over subproblems (column mask, right-hand side), each built once
and shared, without listing the coset's elements, and `mots_bruteforce`
independently minimizes over all manifestly orthogonal trees for tiny
explicit supports so the recurrence can be cross-checked.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import OversizeError
from .gf2 import BitMatrix, Coset, _echelon, _pack, _reduce, _span
from .gf2 import enumerate_coset  # noqa: F401  (no caller here; perfbench's tracer test reads it)
from .rng import streams
from .trees import Leaf, Node, Plus, StateTree, Tensor

_R2 = 2.0 ** -0.5

CONVENTIONS = ("classical", "free")

# Widest matrix the exact dp accepts.  On a 2-vCPU VM one value-only dp
# takes about 2.7 s (process peak 44 MiB) at n = 18 and 6.2 s (53 MiB) at
# n = 19.
MAX_N = 18

# Candidate splits scored per numpy step (at least one mask's); larger
# chunks raise peak memory and run no faster.
_CHUNK = 1 << 14

# Low bits of a packed dp key that hold the value (see _split_dp).
_VAL_BITS = 24
_VAL_MASK = (1 << _VAL_BITS) - 1

# mots_random_experiment runs up to 2^_STACK_BITS / 2^n trials in one dp,
# so its arrays never outgrow one trial's at n = _STACK_BITS.
_STACK_BITS = 16


def _leaf_base(convention: str, zero_column: bool) -> int:
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}")
    return (2 if convention == "classical" else 1) if zero_column else 1


class DpTable(Mapping):
    """The dp table as a read-only mapping mask -> (M(A_mask), argmin I),
    over the nonempty masks in ascending order; a one-column mask has no
    split, so its argmin is None.  `val` and `arg` are the dp's arrays,
    indexed by mask."""

    def __init__(self, val: np.ndarray, arg: np.ndarray):
        self.val, self.arg = val, arg

    def __getitem__(self, m: int) -> tuple[int, int | None]:
        if not 0 < m < len(self.val):
            raise KeyError(m)
        return int(self.val[m]), int(self.arg[m]) if m & (m - 1) else None

    def __iter__(self):
        return iter(range(1, len(self.val)))

    def __len__(self) -> int:
        return len(self.val) - 1


@dataclass
class MotsResult:
    value: int
    convention: str
    witness: StateTree | None
    table: DpTable | None


def _subset_ranks(rows: list[list[int]], n: int) -> np.ndarray:
    """GF(2) rank of every column subset of each of a stack of T matrices
    of n columns, as a (2^n, T) int8 array indexed by (mask, trial): rows[t]
    holds trial t's rows, packed as BitMatrix packs them.  One trial is
    the stack of T = 1.

    Row operations keep every subset rank, so the columns are read off an
    echelon basis of the row space and fit in n bits.  The subsets of a
    mask whose columns XOR to 0 form the kernel of its columns, 2^(|mask| -
    rank) of them, and one subset-sum transform counts them for all masks
    of all trials.
    """
    basis = np.zeros((len(rows), n), dtype=np.int32)  # at most n rows each, zeros below
    for t, r in enumerate(rows):
        e = _echelon(r)
        basis[t, :len(e)] = e
    bits = basis[:, :, None] >> np.arange(n - 1, -1, -1, dtype=np.int32) & 1  # [t, row, column]
    cols = (bits << np.arange(n, dtype=np.int32)[:, None]).sum(axis=1, dtype=np.int32)  # [t, column]
    xor = np.zeros((1 << n, len(rows)), dtype=np.int32)
    for j in range(n):
        xor[1 << j:2 << j] = xor[:1 << j] ^ cols[:, j]
    zeros = (xor == 0).astype(np.int32)
    for j in range(n):
        pairs = zeros.reshape(-1, 2, 1 << j, len(rows))
        pairs[:, 1] += pairs[:, 0]
    return (np.bitwise_count(np.arange(1 << n))[:, None] - np.bitwise_count(zeros - 1)).astype(np.int8)


def _split_dp(rank: np.ndarray, convention: str) -> tuple[np.ndarray, np.ndarray]:
    """val[mask, u] = M(A_mask) of trial u and, for masks of two or more
    columns, arg[mask, u] = I, for a stack of T trials of n columns each:
    rank is the (2^n, T) array of their subset ranks (column j of trial u
    is zero iff rank[2^j, u] == 0).  One trial is the stack of T = 1.

    For a mask of p columns with lowest bit `low` and rest = mask ^ low,
    d[t] deposits the bits of t into the set bits of rest, t = 0 ...
    2^(p-1) - 1.  The I sides low + d[t], t < 2^(p-1) - 1, are the proper
    splits in ascending order, and the J side of d[t] is d[2^(p-1)-1-t].
    These are the same for every trial, so one chunk's splits serve the
    whole stack.  np.argmin returns the first minimum, so ties go to the
    smallest I.

    Layout: one int32 array key[x, u] = rank[x, u] << _VAL_BITS | val[x, u],
    so one lookup per side gives key[I] + key[J], whose low _VAL_BITS bits
    are the value sum and whose high bits are the rank sum.  Splitting off
    the low column shows by induction that val[m] <= |m| 2^(|m| - rank m),
    so a value sum and a score are both at most |I| 2^|I| + |J| 2^|J| <
    n 2^n <= MAX_N 2^MAX_N < 2^_VAL_BITS; with rank sums at most 2 MAX_N,
    a key sum stays below (2 MAX_N + 1) 2^_VAL_BITS < 2^31.  The field
    holds n <= 19 (19 2^19 < 2^24); the tests check MAX_N against it.
    """
    n = rank.shape[0].bit_length() - 1
    trials = rank.shape[1]
    key = rank.astype(np.int32) << _VAL_BITS
    arg = np.zeros(rank.shape, dtype=np.int32)
    stack = np.arange(trials)
    single = 1 << np.arange(n)
    key[single] |= np.where(rank[single] == 0, _leaf_base(convention, True), _leaf_base(convention, False))
    pop = np.bitwise_count(np.arange(1 << n, dtype=np.int32))
    layers = np.split(np.argsort(pop, kind="stable").astype(np.int32),
                      np.cumsum(np.bincount(pop))[:-1])
    for p in range(2, n + 1):
        masks = layers[p]
        bits = np.empty((len(masks), p), dtype=np.int32)  # set bits, low bit first
        rest = masks.copy()
        for q in range(p):
            bits[:, q] = rest & -rest
            rest ^= bits[:, q]
        step = max(1, _CHUNK // (trials << (p - 1)))
        for a in range(0, len(masks), step):
            m, b = masks[a:a + step], bits[a:a + step]
            d = np.zeros((len(m), 1 << (p - 1)), dtype=np.int32)
            for q in range(1, p):
                h = 1 << (q - 1)
                np.add(d[:, :h], b[:, q:q + 1], out=d[:, h:2 * h])
            i = d[:, :-1] + b[:, :1]
            s = np.take(key, i, axis=0)
            s += np.take(key, d[:, :0:-1], axis=0)
            shift = s >> _VAL_BITS
            shift -= rank[m, None, :]
            s &= _VAL_MASK
            s <<= shift
            best = np.argmin(s, axis=1)
            rows = np.arange(len(m))[:, None]
            key[m] |= s[rows, best, stack]
            arg[m] = i[rows, best]
    return key & _VAL_MASK, arg


def _check_width(n: int) -> None:
    if n > MAX_N:
        # 3^n / 2 is past the float range from n = 647 on: name its power of ten
        splits = f"{3 ** n // 2:.2e}" if n < 600 else f"10^{n * math.log10(3) - math.log10(2):.0f}"
        raise OversizeError(f"n={n}: the exact MO dp scores about 3^n/2 = {splits} "
                            f"column splits; the cap is n <= {MAX_N}")


def mots_coset(a: BitMatrix, convention: str = "classical", b: int = 0,
               witness: bool = True, table: bool = True) -> MotsResult:
    """M(A) by subset dynamic programming, with an optional witness tree.

    The witness represents the coset state for (A, b) (b = 0: the
    subgroup state), is manifestly orthogonal, and has exactly M(A)
    leaves under the chosen convention.
    """
    _check_width(a.n)
    val, arg = (x[:, 0] for x in _split_dp(_subset_ranks([list(a.rows)], a.n), convention))
    wit = _build_witness(a, b, arg.tolist(), convention) if witness else None
    return MotsResult(int(val[-1]), convention, wit, DpTable(val, arg) if table else None)


def _build_witness(a: BitMatrix, b: int, arg: list[int], convention: str) -> StateTree:
    """The witness over subproblems (mask, rhs), each standing for the coset
    {x_mask : A_mask x_mask = rhs}.  A one-column mask is a leaf.  Any
    other mask splits at I = arg[mask], J = mask ^ I, into the tensor of
    (I, c) and (J, rhs ^ c) for each value c of A_I x_I, ascending, with
    rhs ^ c in the span of A_J's columns, summed with equal weights.  Each
    (mask, rhs) is built once, so equal subtrees are one object.  Each
    split lists span(A_I) once per mask and tests rhs ^ c by reducing it
    against an echelon basis of A_J's columns."""
    Coset(a, b)  # an unsolvable b raises EmptyCosetError
    cols = a.columns()
    splits: dict[int, tuple[list[int], list[int]]] = {}  # mask -> (sorted span(A_I), basis of A_J)
    built: dict[tuple[int, int], Node] = {}

    def basis(mask: int) -> list[int]:
        return _echelon([c for j, c in enumerate(cols) if mask >> j & 1])

    def build(mask: int, rhs: int) -> Node:
        if (mask, rhs) in built:
            return built[mask, rhs]
        if mask & (mask - 1) == 0:
            j = mask.bit_length() - 1
            if cols[j]:
                node = Leaf(j + 1, 0.0, 1.0) if rhs else Leaf(j + 1, 1.0, 0.0)
            elif convention == "free":
                node = Leaf(j + 1, _R2, _R2)
            else:
                node = Plus(((_R2, Leaf(j + 1, 1.0, 0.0)), (_R2, Leaf(j + 1, 0.0, 1.0))))
        else:
            i_mask = arg[mask]
            j_mask = mask ^ i_mask
            if mask not in splits:
                splits[mask] = _span(basis(i_mask)), basis(j_mask)
            span_i, basis_j = splits[mask]
            parts = [Tensor((build(i_mask, c), build(j_mask, rhs ^ c)))
                     for c in span_i if not _reduce(rhs ^ c, basis_j)]
            coeff = (1.0 / len(parts)) ** 0.5
            node = parts[0] if len(parts) == 1 else Plus(tuple((coeff, p) for p in parts))
        built[mask, rhs] = node
        return node

    return StateTree(a.n, build((1 << a.n) - 1, b))


# ---------------------------------------------------------------------------
# brute-force oracle over explicit supports


# The brute force's reach: qubits and support strings.
_BRUTE_MAX_N = 4
_BRUTE_MAX_STATES = 16

_PROJ_TABLES: dict[tuple[int, int], list[int]] = {}


def _proj_table(m: int, posmask: int) -> list[int]:
    """basis index over m positions (MSB = position 0) -> index over posmask."""
    got = _PROJ_TABLES.get((m, posmask))
    if got is not None:
        return got
    positions = [p for p in range(m) if (posmask >> p) & 1]
    table = []
    for b in range(1 << m):
        out = 0
        for p in positions:
            out = (out << 1) | ((b >> (m - 1 - p)) & 1)
        table.append(out)
    _PROJ_TABLES[(m, posmask)] = table
    return table


def mots_bruteforce(strings: list[int] | set[int], n: int,
                    convention: str = "classical") -> int:
    """Exact minimum leaves over all manifestly orthogonal trees for |S>.

    Exhaustive recursion, independent of the coset recurrence: at each
    level try every split of the support into two nonempty parts (a +
    vertex; the parts automatically have disjoint supports) and every
    nontrivial qubit bipartition along which the support factorizes (a
    tensor vertex).  Supports are bitmasks over the local basis (bit b =
    basis state b present), memoized per qubit set.  Desk-scale only.
    """
    if n > _BRUTE_MAX_N:
        raise OversizeError(f"brute force capped at {_BRUTE_MAX_N} qubits")
    elems = sorted(set(strings))
    if not elems:
        raise ValueError("support must be nonempty")
    if len(elems) > _BRUTE_MAX_STATES:
        raise OversizeError(f"brute force capped at {_BRUTE_MAX_STATES} support strings")
    if max(elems) >= (1 << n):
        raise ValueError("support string exceeds n bits")
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}")
    pair_base = 1 if convention == "free" else 2
    tables: dict[tuple[int, ...], list[int]] = {}

    def rec(qubits: tuple[int, ...], support: int) -> int:
        m = len(qubits)
        if m == 1:
            return pair_base if support == 0b11 else 1
        tab = tables.get(qubits)
        if tab is None:
            tab = [0] * (1 << (1 << m))
            tables[qubits] = tab
        got = tab[support]
        if got:
            return got
        best = 0
        # + splits: any partition of the support into two nonempty parts;
        # the part s1 keeps the lowest set bit, so each split shows up once
        low = support & -support
        rest = support ^ low
        if rest:
            s = (rest - 1) & rest
            while True:
                s1 = low | s
                s2 = support ^ s1
                c1 = tab[s1] or rec(qubits, s1)
                c2 = tab[s2] or rec(qubits, s2)
                cost = c1 + c2
                if not best or cost < best:
                    best = cost
                if s == 0:
                    break
                s = (s - 1) & rest
        # tensor splits: qubit bipartitions along which S is a product set
        count = support.bit_count()
        members = [b for b in range(1 << m) if (support >> b) & 1]
        for imask in range(1, (1 << m) - 1, 2):  # position 0 stays on the I side
            jmask = ((1 << m) - 1) ^ imask
            ti = _proj_table(m, imask)
            tj = _proj_table(m, jmask)
            pi = 0
            pj = 0
            for b in members:
                pi |= 1 << ti[b]
                pj |= 1 << tj[b]
            if pi.bit_count() * pj.bit_count() != count:
                continue
            qi = tuple(qubits[p] for p in range(m) if (imask >> p) & 1)
            qj = tuple(qubits[p] for p in range(m) if (jmask >> p) & 1)
            cost = rec(qi, pi) + rec(qj, pj)
            if not best or cost < best:
                best = cost
        tab[support] = best
        return best

    support = 0
    for e in elems:
        support |= 1 << e
    return rec(tuple(range(1, n + 1)), support)


# ---------------------------------------------------------------------------
# random-matrix experiment


def mots_random_experiment(n: int, k: int, trials: int, seed: int,
                           convention: str = "classical") -> dict:
    """Distribution of M(A) over uniform k x n matrices; report only.

    Also counts the fraction of matrices with an all-zero column, a
    structural 'bad event' of the lower-bound argument.
    """
    _check_width(n)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    values = []
    zero_cols = 0
    stack = max(1, (1 << _STACK_BITS) >> n)
    gens = streams(seed, trials)
    for start in range(0, trials, stack):
        # trial t's matrix is random_bitmatrix(k, n, seed, t), its rows packed from the drawn bits
        rows = [_pack(rng.integers(0, 2, size=(k, n))) for _, rng in zip(range(min(stack, trials - start)), gens)]
        rank = _subset_ranks(rows, n)
        val, _ = _split_dp(rank, convention)
        values += val[-1].tolist()
        zero_cols += int(np.count_nonzero((rank[1 << np.arange(n)] == 0).any(axis=0)))
    hist: dict[int, int] = {}
    for v in values:
        hist[v] = hist.get(v, 0) + 1
    return {
        "n": n,
        "k": k,
        "trials": trials,
        "seed": seed,
        "convention": convention,
        "min": min(values),
        "median": statistics.median(values),
        "max": max(values),
        "histogram": dict(sorted(hist.items())),
        "zero_column_fraction": zero_cols / trials,
    }


__all__ = [
    "CONVENTIONS", "MAX_N", "DpTable", "MotsResult", "mots_bruteforce", "mots_coset",
    "mots_random_experiment",
]
