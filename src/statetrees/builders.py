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


def _refuse_oversize(name: str, n: int, leaves) -> None:
    """Refuse a halving build past COSET_CAP leaves before any vertex is
    made.  Each of these trees has at least n leaves, so n alone decides
    past the cap, before leaves() sizes the recurrence."""
    if n > COSET_CAP or leaves() > COSET_CAP:
        raise OversizeError(f"{name} would have more than {COSET_CAP} leaves")


def build_cat(n: int) -> StateTree:
    """(|0...0> + |1...1>)/sqrt(2); 2n leaves for n >= 2."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return StateTree(1, Leaf(1, _R2, _R2))
    zeros = Tensor(tuple(Leaf(q, 1.0, 0.0) for q in range(1, n + 1)))
    ones = Tensor(tuple(Leaf(q, 0.0, 1.0) for q in range(1, n + 1)))
    return StateTree(n, Plus(((_R2, zeros), (_R2, ones))))


@lru_cache(maxsize=None)
def _parity_leaves(m: int) -> int:
    """Leaves of _parity_node over m qubits, either parity."""
    return 1 if m == 1 else 2 * (_parity_leaves(m // 2) + _parity_leaves(m - m // 2))


def _parity_node(qubits: tuple[int, ...], j: int) -> Node:
    m = len(qubits)
    if m == 1:
        return Leaf(qubits[0], 1.0 - j, float(j))
    left, right = qubits[: m // 2], qubits[m // 2:]
    even = Tensor((_parity_node(left, 0), _parity_node(right, j)))
    odd = Tensor((_parity_node(left, 1), _parity_node(right, j ^ 1)))
    return Plus(((_R2, even), (_R2, odd)))


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
    _refuse_oversize(f"parity({n})", n, lambda: _parity_leaves(n))
    return StateTree(n, _parity_node(tuple(range(1, n + 1)), j))


def build_parity_fourier(n: int, j: int) -> StateTree:
    """The same parity state as a 2-term sum of Hadamard products (size 2n)."""
    if j not in (0, 1):
        raise ValueError("parity j must be 0 or 1")
    if n < 1:
        raise ValueError("n must be positive")
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


def _cluster_splits(m: int, i: int, j: int, k: int):
    """(left sector, right sector) of each term of sector (i, j, k) over
    m >= 2 qubits: the splits of its strings into nonempty halves."""
    for mid_l in (0, 1):
        for mid_r in (0, 1):
            for j1 in (0, 1):
                left, right = (i, j1, mid_l), (mid_r, j ^ j1 ^ (mid_l & mid_r), k)
                if _nonempty(m // 2, *left) and _nonempty(m - m // 2, *right):
                    yield left, right


@lru_cache(maxsize=None)
def _cluster_terms(m: int, i: int, j: int, k: int) -> tuple[tuple[float, tuple, tuple], ...]:
    """The terms of a nonempty sector (i, j, k) over m >= 2 qubits:
    (edge coefficient, left sector, right sector)."""
    total = _segment_counts(m)[(i, j, k)]
    left_c, right_c = _segment_counts(m // 2), _segment_counts(m - m // 2)
    return tuple((math.sqrt(left_c[left] * right_c[right] / total), left, right)
                 for left, right in _cluster_splits(m, i, j, k))


@lru_cache(maxsize=None)
def _cluster_leaves(m: int, i: int, j: int, k: int) -> int:
    """Leaves of _cluster_segment over m qubits in a nonempty sector; no
    count table is needed, so a size past the cap is refused at once."""
    if m == 1:
        return 1
    return sum(_cluster_leaves(m // 2, *left) + _cluster_leaves(m - m // 2, *right)
               for left, right in _cluster_splits(m, i, j, k))


def _cluster_segment(qubits: tuple[int, ...], i: int, j: int, k: int) -> Node:
    """Sector (i, j, k) over the qubits; it must be nonempty."""
    m = len(qubits)
    if m == 1:
        return Leaf(qubits[0], 1.0 - i, float(i))
    left_q, right_q = qubits[: m // 2], qubits[m // 2:]
    terms = [(coeff, Tensor((_cluster_segment(left_q, *left), _cluster_segment(right_q, *right))))
             for coeff, left, right in _cluster_terms(m, i, j, k)]
    if len(terms) == 1 and terms[0][0] == 1.0:
        return terms[0][1]
    return Plus(tuple(terms))


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
    odd = [(i, 1, k) for i in (0, 1) for k in (0, 1)]
    _refuse_oversize(f"cluster1d({n})", n, lambda: n + sum(
        _cluster_leaves(n, *sector) for sector in odd if _nonempty(n, *sector)))
    qubits = tuple(range(1, n + 1))
    uniform = Tensor(tuple(Leaf(q, _R2, _R2) for q in qubits))
    counts = _segment_counts(n)
    terms: list[tuple[complex, Node]] = [(1.0, uniform)]
    scale = 2.0 ** (1.0 - n / 2.0)
    for sector in odd:
        cnt = counts.get(sector, 0)
        if cnt:
            terms.append((-scale * math.sqrt(cnt), _cluster_segment(qubits, *sector)))
    return StateTree(n, Plus(tuple(terms)))


def _hamming_weights(m: int, k: int) -> range:
    """The weights j of the left m // 2 qubits in weight-k strings over m qubits."""
    lh = m // 2
    return range(max(0, k - (m - lh)), min(lh, k) + 1)


@lru_cache(maxsize=None)
def _hamming_leaves(m: int, k: int) -> int:
    """Leaves of _hamming_node over m qubits at weight k; the sum stops
    once it passes COSET_CAP, so past the cap the count is a lower bound."""
    if m == 1:
        return 1
    total = 0
    for j in _hamming_weights(m, k):
        total += _hamming_leaves(m // 2, j) + _hamming_leaves(m - m // 2, k - j)
        if total > COSET_CAP:
            break
    return total


def _hamming_node(qubits: tuple[int, ...], k: int) -> Node:
    m = len(qubits)
    if m == 1:
        return Leaf(qubits[0], 1.0 - k, float(k))
    total = math.comb(m, k)
    lh = m // 2
    rh = m - lh
    left_q, right_q = qubits[:lh], qubits[lh:]
    terms = []
    for j in _hamming_weights(m, k):
        ways = math.comb(lh, j) * math.comb(rh, k - j)
        coeff = math.sqrt(ways / total)
        terms.append((coeff, Tensor((_hamming_node(left_q, j),
                                     _hamming_node(right_q, k - j)))))
    if len(terms) == 1 and terms[0][0] == 1.0:
        return terms[0][1]
    return Plus(tuple(terms))


def build_hamming(n: int, k: int) -> StateTree:
    """Uniform superposition over n-bit strings of Hamming weight k."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    _refuse_oversize(f"hamming({n}, {k})", n, lambda: _hamming_leaves(n, k))
    return StateTree(n, _hamming_node(tuple(range(1, n + 1)), k))


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
