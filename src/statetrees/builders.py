"""Constructors for the named state families, as explicit trees.

Every builder returns a tree that passes validate() and whose
evaluation matches a direct enumeration of the intended state; the
tests pin both.  Cat and parity trees are manifestly orthogonal, the
Fourier-basis constructions are orthogonal but not manifestly so, and
the 1-D cluster recursion produces a general tree.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from .errors import OversizeError
from .gf2 import COSET_CAP, Coset, enumerate_coset, rank_gf2, row_space_basis, solve
from .trees import Leaf, Node, Plus, StateTree, Tensor, basis_product, local_basis_change

_R2 = 1.0 / math.sqrt(2.0)


def _refuse_oversize(name: str, leaves: int) -> None:
    """Refuse a build of more than COSET_CAP leaves before any vertex is made."""
    if leaves > COSET_CAP:
        raise OversizeError(f"{name} would have more than {COSET_CAP} leaves")


def _halving(name: str, n: int, sectors, splits, coeff, bit, extra: int = 0) -> list[Node]:
    """The tree of each sector over qubits 1..n, by halving the qubits.

    A sector over m >= 2 qubits is the sum, over (left, right) in
    splits(m, sector), of coeff(m, sector, left, right) times the left
    sector over the first m // 2 qubits tensor the right sector over the
    rest; over one qubit it is the basis leaf |bit(sector)>.  A build
    whose leaves, plus `extra`, pass COSET_CAP is refused.  Each (first
    qubit, m, sector) is built once, so the trees share their repeated
    subtrees as dsl.parse shares equal text.
    """
    counted: dict = {}

    def leaves(m: int, sector) -> int:
        """Leaves of a sector over m qubits; the sum stops once it passes
        COSET_CAP, so past the cap the count is a lower bound."""
        if m == 1:
            return 1
        if (m, sector) not in counted:
            total = 0
            for left, right in splits(m, sector):
                total += leaves(m // 2, left) + leaves(m - m // 2, right)
                if total > COSET_CAP:
                    break
            counted[m, sector] = total
        return counted[m, sector]

    # every sector has at least n leaves, so n alone decides past the cap
    _refuse_oversize(name, n if n > COSET_CAP else extra + sum(leaves(n, sector) for sector in sectors))
    built: dict = {}

    def node(first: int, m: int, sector) -> Node:
        key = (first, m, sector)
        if key not in built:
            if m == 1:
                b = bit(sector)
                built[key] = Leaf(first, 1.0 - b, float(b))
            else:
                half = m // 2
                terms = [(coeff(m, sector, left, right),
                          Tensor((node(first, half, left), node(first + half, m - half, right))))
                         for left, right in splits(m, sector)]
                if len(terms) == 1 and terms[0][0] == 1.0:  # the whole sector is one product
                    built[key] = terms[0][1]
                else:
                    built[key] = Plus(tuple(terms))
        return built[key]

    return [node(1, n, sector) for sector in sectors]


def build_cat(n: int) -> StateTree:
    """(|0...0> + |1...1>)/sqrt(2); 2n leaves for n >= 2."""
    if n < 1:
        raise ValueError("n must be positive")
    _refuse_oversize(f"cat({n})", 2 * n)
    if n == 1:
        return StateTree(1, Leaf(1, _R2, _R2))
    zeros = Tensor(tuple(Leaf(q, 1.0, 0.0) for q in range(1, n + 1)))
    ones = Tensor(tuple(Leaf(q, 0.0, 1.0) for q in range(1, n + 1)))
    return StateTree(n, Plus(((_R2, zeros), (_R2, ones))))


def build_parity(n: int, j: int) -> StateTree:
    """Uniform superposition over n-bit strings of parity j.

    Halving recursion over floor(n/2) and ceil(n/2) qubits: size
    S(n) = 2 (S(floor(n/2)) + S(ceil(n/2))), exactly n^2 when n is a
    power of two and the exact MO size of the parity coset for n <= 14.
    """
    if j not in (0, 1):
        raise ValueError("parity j must be 0 or 1")
    if n < 1:
        raise ValueError("n must be positive")
    (root,) = _halving(f"parity({n})", n, (j,), lambda m, parity: ((0, parity), (1, parity ^ 1)),
                       lambda *_: _R2, lambda parity: parity)
    return StateTree(n, root)


def build_parity_fourier(n: int, j: int) -> StateTree:
    """The same parity state as a 2-term sum of Hadamard products (size 2n)."""
    if j not in (0, 1):
        raise ValueError("parity j must be 0 or 1")
    if n < 1:
        raise ValueError("n must be positive")
    _refuse_oversize(f"parity-fourier({n})", 2 * n)
    plus_prod = Tensor(tuple(Leaf(q, _R2, _R2) for q in range(1, n + 1)))
    minus_prod = Tensor(tuple(Leaf(q, _R2, -_R2) for q in range(1, n + 1)))
    sign = -1.0 if j else 1.0
    return StateTree(n, Plus(((_R2, plus_prod), (sign * _R2, minus_prod))))


@lru_cache(maxsize=None)
def _segment_counts(m: int) -> dict[tuple[int, int, int], int]:
    """#(strings of length m with first bit i, last bit k, pair-product parity j)."""
    if m == 1:
        return {(i, 0, i): 1 for i in (0, 1)}
    left, right = _segment_counts(m // 2), _segment_counts(m - m // 2)
    out: dict[tuple[int, int, int], int] = {}
    for (i, j1, mid_l), c1 in left.items():
        for (mid_r, j2, k), c2 in right.items():
            j = j1 ^ j2 ^ (mid_l & mid_r)
            key = (i, j, k)
            out[key] = out.get(key, 0) + c1 * c2
    return out


def _nonempty(m: int, i: int, j: int, k: int) -> bool:
    """Whether sector (i, j, k) over m qubits holds a string.  From m = 4
    on every sector does: whatever the end bits, the inner bits alone can
    make the pair-product parity 0 or 1."""
    if m == 1:
        return j == 0 and i == k
    if m == 2:
        return j == i & k
    return m > 3 or j == 0 or i != k  # m = 3: the parity is x2 (i xor k)


def _cluster_splits(m: int, sector: tuple[int, int, int]):
    """(left sector, right sector) of each term of sector (i, j, k) over
    m >= 2 qubits: the splits of its strings into nonempty halves."""
    i, j, k = sector
    for mid_l in (0, 1):
        for mid_r in (0, 1):
            for j1 in (0, 1):
                left, right = (i, j1, mid_l), (mid_r, j ^ j1 ^ (mid_l & mid_r), k)
                if _nonempty(m // 2, *left) and _nonempty(m - m // 2, *right):
                    yield left, right


def _cluster_coeff(m: int, sector, left, right) -> float:
    """The edge coefficient of a split: the square root of the share of
    the sector's strings that it holds."""
    total = _segment_counts(m)[sector]
    return math.sqrt(_segment_counts(m // 2)[left] * _segment_counts(m - m // 2)[right] / total)


def build_cluster1d(n: int) -> StateTree:
    """1-D cluster state 2^{-n/2} sum_x (-1)^{x1 x2 + ... + x_{n-1} x_n} |x>.

    Assembled as the uniform superposition minus twice the odd-phase
    part; the odd part splits over the four (first bit, last bit)
    sectors, each built by a recursion over floor(m/2) and ceil(m/2)
    qubits with edge coefficients computed from exact sector
    cardinalities.  O(n^4) leaves for every n >= 2.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    odd = [(i, 1, k) for i in (0, 1) for k in (0, 1) if _nonempty(n, i, 1, k)]
    segments = _halving(f"cluster1d({n})", n, odd, _cluster_splits, _cluster_coeff,
                        lambda sector: sector[0], extra=n)
    uniform = Tensor(tuple(Leaf(q, _R2, _R2) for q in range(1, n + 1)))
    counts = _segment_counts(n)
    scale = 2.0 ** (1.0 - n / 2.0)
    terms: list[tuple[complex, Node]] = [(1.0, uniform)]
    terms += [(-scale * math.sqrt(counts[sector]), segment)
              for sector, segment in zip(odd, segments)]
    return StateTree(n, Plus(tuple(terms)))


def _hamming_splits(m: int, k: int) -> list[tuple[int, int]]:
    """(left weight, right weight) of the weight-k strings over m qubits,
    split after the first m // 2."""
    lh = m // 2
    return [(j, k - j) for j in range(max(0, k - (m - lh)), min(lh, k) + 1)]


def _hamming_coeff(m: int, k: int, left: int, right: int) -> float:
    ways = math.comb(m // 2, left) * math.comb(m - m // 2, right)
    return math.sqrt(ways / math.comb(m, k))


def build_hamming(n: int, k: int) -> StateTree:
    """Uniform superposition over n-bit strings of Hamming weight k."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    (root,) = _halving(f"hamming({n}, {k})", n, (k,), _hamming_splits, _hamming_coeff, lambda k: k)
    return StateTree(n, root)


def build_coset_sigma1(c: Coset) -> StateTree:
    """|C| classical product terms with coefficients 1/sqrt(|C|)."""
    elems = enumerate_coset(c)
    n = c.n
    qubits = list(range(1, n + 1))
    r = 1.0 / math.sqrt(len(elems))
    if len(elems) == 1:
        return StateTree(n, basis_product(qubits, elems[0]))
    return StateTree(n, Plus(tuple((r, basis_product(qubits, x)) for x in elems)))


def build_coset_fourier_otree(c: Coset) -> StateTree:
    """Orthogonal tree for |C> over the 2^rank(A) Fourier-support strings.

    The coset state in the Hadamard basis is supported on the row space
    of A with signs (-1)^{u.x0}; build that sparse superposition with
    classical leaves, then change every leaf back with a Hadamard.
    """
    r = rank_gf2(c.a)
    if (1 << r) > COSET_CAP:
        raise OversizeError(f"dual support 2^{r} exceeds cap {COSET_CAP}")
    n = c.n
    x0 = solve(c.a, c.b)
    assert x0 is not None
    basis = row_space_basis(c.a)
    supp = [0]
    for v in basis:
        supp += [u ^ v for u in supp]
    supp.sort()
    amp = 2.0 ** (-r / 2.0)
    qubits = list(range(1, n + 1))
    terms = []
    for u in supp:
        sign = -1.0 if (bin(u & x0).count("1") & 1) else 1.0
        terms.append((sign * amp, basis_product(qubits, u)))
    node: Node = terms[0][1] if len(terms) == 1 else Plus(tuple(terms))
    dual = StateTree(n, node)
    h = np.array([[_R2, _R2], [_R2, -_R2]], dtype=complex)
    return local_basis_change(dual, [h] * n)


def build_divisibility_state(n: int, p: int) -> np.ndarray:
    """Uniform superposition over multiples of p among n-bit integers."""
    if p < 2:
        raise ValueError("p must be at least 2")
    if 2 * p > (1 << n):
        raise ValueError("need 2p <= 2^n so the state is nondegenerate")
    v = np.zeros(1 << n, dtype=complex)
    idx = np.arange(0, 1 << n, p)
    v[idx] = 1.0 / math.sqrt(len(idx))
    return v


def build_divisibility_tree(n: int, p: int) -> StateTree:
    """Sum of p phased product terms; evaluates to the divisibility state.

    Term h is a product of leaves (|0> + e^{2 pi i h 2^j / p} |1>)/sqrt(2)
    over the bit place values 2^j, so the term evaluates to the geometric
    character x -> w^{hx}; averaging the p characters leaves exactly the
    multiples of p.  Size n p.
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    _refuse_oversize(f"divisibility({n}, {p})", n * p)  # before 1 << n is formed
    if 2 * p > (1 << n):
        raise ValueError("need 2p <= 2^n so the state is nondegenerate")
    m = (((1 << n) - 1) // p) + 1
    coeff = (2.0 ** (n / 2.0)) / (p * math.sqrt(m))
    terms = []
    for h in range(p):
        leaves = []
        for q in range(1, n + 1):
            j = n - q  # place value of qubit q
            phase = cmath.exp(2j * cmath.pi * h * pow(2, j, p) / p)
            leaves.append(Leaf(q, _R2, phase * _R2))
        terms.append((coeff, Tensor(tuple(leaves))))
    return StateTree(n, Plus(tuple(terms)))


def _pm(qubits: tuple[int, ...], bits_a: int, bits_b: int, sign: float) -> Node:
    """(|a> + sign |b>)/sqrt(2) over the given qubits."""
    return Plus(((_R2, basis_product(list(qubits), bits_a)),
                 (sign * _R2, basis_product(list(qubits), bits_b))))


def build_knill_tree() -> StateTree:
    """The 5-qubit, 16-term, +-1/4 state with a 40-leaf decomposition.

    Four disjoint-support terms, each a 2-qubit Bell-type factor tensor
    a 3-qubit 2-term factor: 4 * (4 + 6) = 40 leaves.
    """
    q12 = (1, 2)
    q345 = (3, 4, 5)
    t1 = Tensor((_pm(q12, 0b01, 0b10, +1.0), _pm(q345, 0b010, 0b111, -1.0)))
    t2 = Tensor((_pm(q12, 0b01, 0b10, -1.0), _pm(q345, 0b001, 0b100, -1.0)))
    t3 = Tensor((_pm(q12, 0b00, 0b11, +1.0), _pm(q345, 0b011, 0b110, +1.0)))
    t4 = Tensor((_pm(q12, 0b00, 0b11, -1.0), _pm(q345, 0b000, 0b101, +1.0)))
    root = Plus(((0.5, t1), (0.5, t2), (-0.5, t3), (0.5, t4)))
    return StateTree(5, root)


__all__ = [
    "build_cat", "build_cluster1d", "build_coset_fourier_otree",
    "build_coset_sigma1", "build_divisibility_state", "build_divisibility_tree",
    "build_hamming", "build_knill_tree", "build_parity", "build_parity_fourier",
]
