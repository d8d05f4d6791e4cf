"""Multilinear arithmetic formulas and the tree <-> formula bridge.

Formulas are binary trees of + and * over complex constants and
variables x_1..x_n.  A formula is multilinear when the polynomial at
every vertex has degree <= 1 in each variable, and syntactic when the
two children of every * mention disjoint variable sets.  Amplitude
functions and formulas translate both ways: |1>_i becomes x_i, |0>_i
becomes (1 - x_i), tensor becomes *, and back again by padding + gates
with (x_i + (1 - x_i)) factors and collapsing single-variable vertices
a + b x_i into leaves a|0> + (a+b)|1>.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Union

import numpy as np

from .dsl import _Reader, _layout, _write, fmt_complex
from .errors import NonMultilinearError, OversizeError
from .trees import MAX_QUBITS, Leaf, Node, Plus, StateTree, Tensor, mask_qubits, normalize_node
from .trees import _fold as _fold_tree, _vertices

_DROP = 0.0  # coefficients are dropped only when they cancel exactly
_MAX_TERMS = 1 << 22  # expansion budget: monomial pairs one * vertex may form
# widest tree formula_to_tree makes: every leaf's qubit mask is as wide as its
# qubit, so memory grows as n^2; 2^15 took 0.6-0.7 s and a 120 MiB peak in the CLI
# on a 2-vCPU VM, 2^16 1.1 s and 347 MiB
_TREE_MAX_QUBITS = 1 << 15


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Const:
    value: complex


@dataclass(frozen=True)
class Add:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Mul:
    left: "Formula"
    right: "Formula"


Formula = Union[Var, Const, Add, Mul]


def _fold(f: Formula, leaf, node):
    """trees._fold over a formula: leaf(g) gives a Var's or a Const's result,
    node(g, left, right) an Add's or a Mul's from its children's."""
    vertex = (lambda g: (g.left, g.right), lambda g, kids: node(g, *kids))
    return _fold_tree(f, leaf, {Add: vertex, Mul: vertex})


def _leaf_vars(g: Var | Const) -> frozenset[int]:
    return frozenset((g.index,)) if isinstance(g, Var) else frozenset()


def _arith(g: Add | Mul, a, b):
    return a + b if isinstance(g, Add) else a * b


def formula_size(f: Formula) -> int:
    """Number of leaf vertices (constants and variables)."""
    return _fold(f, lambda _: 1, lambda _, a, b: a + b)


def formula_depth(f: Formula) -> int:
    return _fold(f, lambda _: 0, lambda _, a, b: 1 + max(a, b))


def formula_vars(f: Formula) -> frozenset[int]:
    """Variables appearing syntactically in the subtree."""
    return _fold(f, _leaf_vars, lambda _, a, b: a | b)


def formula_truth_values(f: Formula, nvars: int) -> np.ndarray:
    """Values on all 2^nvars bit points, x_1 as the most significant bit."""
    points = np.arange(1 << nvars)

    def leaf(g: Var | Const) -> np.ndarray:
        if isinstance(g, Var):
            return ((points >> (nvars - g.index)) & 1).astype(complex)
        return np.full(1 << nvars, complex(g.value))

    return _fold(f, leaf, _arith)


# ---------------------------------------------------------------------------
# sparse multilinear expansion


def expand_polynomial(f: Formula, max_vars: int = 24) -> dict[int, complex]:
    """Monomial map {variable bitmask: coefficient} of a multilinear formula.

    Raises NonMultilinearError as soon as any vertex would multiply two
    monomials sharing a variable, i.e. exactly when some subformula
    computes a polynomial of degree >= 2 in a variable.  Dense formulas
    on many variables are refused via the term budget.
    """
    nv = formula_vars(f)
    if nv and max(nv) > max_vars:
        raise NonMultilinearError(f"expansion capped at {max_vars} variables")

    def leaf(g: Var | Const) -> dict[int, complex]:
        if isinstance(g, Var):
            return {1 << (g.index - 1): 1.0 + 0.0j}
        return {} if g.value == 0 else {0: complex(g.value)}

    def node(g: Add | Mul, lp: dict[int, complex], rp: dict[int, complex]) -> dict[int, complex]:
        if isinstance(g, Add):
            out = dict(lp)
            for m, c in rp.items():
                nc = out.get(m, 0.0 + 0.0j) + c
                if abs(nc) <= _DROP:
                    out.pop(m, None)
                else:
                    out[m] = nc
            return out
        if len(lp) * len(rp) > _MAX_TERMS:
            raise NonMultilinearError("expansion exceeds the term budget")
        out = {}
        for m1, c1 in lp.items():
            for m2, c2 in rp.items():
                if m1 & m2:
                    raise NonMultilinearError(
                        "a * vertex multiplies two polynomials sharing a variable")
                m = m1 | m2
                nc = out.get(m, 0.0 + 0.0j) + c1 * c2
                if abs(nc) <= _DROP:
                    out.pop(m, None)
                else:
                    out[m] = nc
        return out

    return _fold(f, leaf, node)


def polys_close(p: dict[int, complex], q: dict[int, complex], tol: float = 1e-9) -> bool:
    for m in set(p) | set(q):
        if abs(p.get(m, 0) - q.get(m, 0)) > tol:
            return False
    return True


def _substitute_zero(f: Formula, var: int) -> Formula:
    leaf = lambda g: Const(0.0 + 0.0j) if isinstance(g, Var) and g.index == var else g
    return _fold(f, leaf, lambda g, l, r: type(g)(l, r))


def make_syntactic(f: Formula) -> Formula:
    """Remove variable overlaps at * gates without changing the polynomial.

    At an offending * vertex a shared variable must have degree 0 in at
    least one child (otherwise the formula was not multilinear); that
    child's occurrences of it are set to 0, which leaves the child's
    polynomial untouched.  The size never grows.
    """
    return _make_syntactic(f, max(24, max(formula_vars(f), default=0)))


def _make_syntactic(f: Formula, cap: int) -> Formula:
    """make_syntactic, folding each vertex to (new vertex, its variables)."""

    def node(g: Add | Mul, lv: tuple, rv: tuple) -> tuple[Formula, frozenset[int]]:
        (left, lvars), (right, rvars) = lv, rv
        if isinstance(g, Add):
            return Add(left, right), lvars | rvars
        shared = lvars & rvars
        if shared:
            lp = expand_polynomial(left, max_vars=cap)
            rp = expand_polynomial(right, max_vars=cap)
            for x in sorted(shared):
                bit = 1 << (x - 1)
                if not any(m & bit for m in lp):
                    left, lvars = _substitute_zero(left, x), lvars - {x}
                elif not any(m & bit for m in rp):
                    right, rvars = _substitute_zero(right, x), rvars - {x}
                else:
                    raise NonMultilinearError(
                        f"variable x{x} has positive degree in both factors")
        return Mul(left, right), lvars | rvars

    return _fold(f, lambda g: (g, _leaf_vars(g)), node)[0]


# ---------------------------------------------------------------------------
# tree <-> formula


def _one_minus_var(q: int) -> Formula:
    return Add(Const(1.0 + 0.0j), Mul(Const(-1.0 + 0.0j), Var(q)))


def tree_to_formula(tree: StateTree) -> Formula:
    """Multilinear formula whose value at bits x is the amplitude of |x>."""

    def leaf(node: Leaf) -> Formula:
        a, b = complex(node.alpha), complex(node.beta)
        if b == 0:
            zero = _one_minus_var(node.qubit)
            return zero if a == 1 else Mul(Const(a), zero)
        if a == 0:
            return Var(node.qubit) if b == 1 else Mul(Const(b), Var(node.qubit))
        return Add(Mul(Const(a), _one_minus_var(node.qubit)),
                   Mul(Const(b), Var(node.qubit)))

    def plus(node: Plus, kids: list[Formula]) -> Formula:
        return functools.reduce(Add, [g if coeff == 1 else Mul(Const(complex(coeff)), g)
                                      for (coeff, _), g in zip(node.children, kids)])

    return _fold_tree(tree.root, leaf, _vertices(lambda _, kids: functools.reduce(Mul, kids), plus))


def formula_to_tree(f: Formula, n: int) -> StateTree:
    """State tree whose amplitudes are the (normalized) formula values.

    Three phases: make the formula syntactic, pad + gates to common
    variable sets with free (|0>+|1>) leaves, collapse single-variable
    pieces a + b x_i into leaves a|0> + (a+b)|1>; every vertex is then
    rescaled to unit norm.  Raises on non-multilinear input and on the
    zero function, and refuses n > _TREE_MAX_QUBITS before any padding
    and a + vertex over more than MAX_QUBITS qubits before padding it,
    since rescaling builds each + vertex's dense vector.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > _TREE_MAX_QUBITS:
        raise OversizeError(f"a tree over {n} qubits exceeds the cap 2^{_TREE_MAX_QUBITS.bit_length() - 1}")
    g = make_syntactic(f)
    used = formula_vars(g)
    if used and max(used) > n:
        raise ValueError("formula mentions variables beyond n")

    def pad(node: Node | None, have: int, need: int) -> Node | None:
        """Tensor on free (|0>+|1>) leaves for the missing variables."""
        parts: list[Node] = [Leaf(q, 1.0, 1.0) for q in mask_qubits(need & ~have)]
        if node is not None:
            parts.append(node)
        if not parts:
            return None
        if len(parts) == 1:
            return parts[0]
        return Tensor(tuple(parts))

    def leaf_value(scalar: complex, node: Node | None, bit: int) -> complex:
        if node is None:
            return scalar
        assert isinstance(node, Leaf)
        return scalar * (node.beta if bit else node.alpha)

    def leaf(g2: Var | Const) -> tuple[complex, Node | None, int]:
        if isinstance(g2, Var):
            return 1.0 + 0.0j, Leaf(g2.index, 0.0, 1.0), 1 << (g2.index - 1)
        return complex(g2.value), None, 0

    def vertex(g2: Add | Mul, left, right) -> tuple[complex, Node | None, int]:
        (s1, t1, m1), (s2, t2, m2) = left, right
        if isinstance(g2, Mul):
            if m1 & m2:
                raise NonMultilinearError("product of overlapping variable sets")
            s = s1 * s2
            if s == 0:
                return 0.0 + 0.0j, None, 0
            if t1 is None:
                return s, t2, m2
            if t2 is None:
                return s, t1, m1
            return s, Tensor((t1, t2)), m1 | m2
        union = m1 | m2
        if s1 == 0 and s2 == 0:
            return 0.0 + 0.0j, None, 0
        if s1 == 0:
            return s2, t2, m2
        if s2 == 0:
            return s1, t1, m1
        if union == 0:
            return s1 + s2, None, 0
        if union.bit_count() == 1:
            # max-linear: both sides constant or a leaf on the same qubit
            q = union.bit_length()
            alpha = leaf_value(s1, t1, 0) + leaf_value(s2, t2, 0)
            beta = leaf_value(s1, t1, 1) + leaf_value(s2, t2, 1)
            if alpha == 0 and beta == 0:
                return 0.0 + 0.0j, None, 0
            return 1.0 + 0.0j, Leaf(q, alpha, beta), union
        if union.bit_count() > MAX_QUBITS:
            raise OversizeError(f"a + vertex over {union.bit_count()} qubits exceeds the dense cap {MAX_QUBITS}")
        p1 = pad(t1, m1, union)
        p2 = pad(t2, m2, union)
        return 1.0 + 0.0j, Plus(((s1, p1), (s2, p2))), union

    scalar, node, mask = _fold(g, leaf, vertex)
    full = (1 << n) - 1
    if scalar == 0:
        raise ValueError("the zero function has no state")
    node = pad(node, mask, full)
    _, root = normalize_node(node)
    phase = scalar / abs(scalar)  # the norm goes; the phase stays on a one-child + vertex
    if phase != 1:
        root = Plus(((phase, root),))
    return StateTree(n, root)


# ---------------------------------------------------------------------------
# Brent balancing


# id -> (the vertex, held so that its id is not reused; its size; its variables)
_Stats = dict[int, tuple[Formula, int, frozenset[int]]]


def _note(stats: _Stats, g: Formula) -> Formula:
    """Enter g in stats from its children's entries; returns g."""
    if isinstance(g, (Var, Const)):
        stats[id(g)] = (g, 1, _leaf_vars(g))
    else:
        (_, sa, va), (_, sb, vb) = stats[id(g.left)], stats[id(g.right)]
        stats[id(g)] = (g, sa + sb, va | vb)
    return g


def balance(f: Formula) -> Formula:
    """Depth-O(log size) equivalent of a multilinear formula.

    Repeatedly splits off a subformula I of between 1/3 and 2/3 of the
    leaves, writes the formula as G + H*I with G and H read off the
    root-to-I path (sums accumulate into G, products into H), and
    balances the three pieces.  The input is made syntactic first, which
    guarantees H and I share no variables; that guard is asserted.
    """
    cap = max(24, max(formula_vars(f), default=0))
    expand_polynomial(f, max_vars=cap)  # raises on non-multilinear input
    g = _make_syntactic(f, cap)
    stats: _Stats = {}
    _fold(g, lambda v: _note(stats, v), lambda v, *_: _note(stats, v))
    return _balance(g, stats)


def _balance(f: Formula, stats: _Stats) -> Formula:
    size = lambda g: stats[id(g)][1]
    if size(f) <= 3:
        return f
    # walk down the larger side to the first subformula of at most 2/3 of the leaves
    path: list[tuple[Formula, str]] = []  # (vertex, side taken)
    target = f
    while size(target) * 3 > 2 * size(f) and not isinstance(target, (Var, Const)):
        side = "l" if size(target.left) >= size(target.right) else "r"
        path.append((target, side))
        target = target.left if side == "l" else target.right
    if not path:
        return f

    g: Formula | None = None  # running sum, None = 0
    h: Formula | None = None  # running product, None = 1
    for vertex, side in reversed(path):
        other = vertex.right if side == "l" else vertex.left
        if isinstance(vertex, Add):
            g = other if g is None else _note(stats, Add(g, other))
        else:
            g = None if g is None else _note(stats, Mul(g, other))
            h = other if h is None else _note(stats, Mul(h, other))

    if h is not None and stats[id(h)][2] & stats[id(target)][2]:
        raise NonMultilinearError("balancing would multiply shared variables")

    bi = _balance(target, stats)  # depth O(log size): every piece has <= 2/3 of the leaves
    bh = None if h is None else _balance(h, stats)
    bg = None if g is None else _balance(g, stats)
    prod = bi if bh is None else Mul(bh, bi)
    return prod if bg is None else Add(bg, prod)


# ---------------------------------------------------------------------------
# threshold formulas


def build_threshold_formula(k: int, h: int) -> Formula:
    """Multilinear formula for [x_1 + ... + x_k >= h] on bit inputs.

    Divide-and-conquer over the two halves of the variables, splitting
    on the exact count i of the left half:

        T_k^h = T_L^h + sum_{i < h} (T_L^i - T_L^(i+1)) T_R^(h-i).

    The exact-count factors (T_L^i - T_L^(i+1)) keep every product
    across disjoint halves, so every subformula is multilinear.  (The
    straight product form 1 - prod_i (1 - T_L^i T_R^(h-i)) computes the
    same Boolean values but multiplies polynomials sharing variables.)
    """
    if not 0 <= h <= k or k < 1:
        raise ValueError(f"need 1 <= k and 0 <= h <= k, got k={k}, h={h}")
    memo: dict[tuple[int, int, int], Formula] = {}

    def minus(a: Formula, b: Formula) -> Formula:
        return Add(a, Mul(Const(-1.0 + 0.0j), b))

    def rec(lo: int, hi: int, hh: int) -> Formula:
        m = hi - lo + 1
        if hh <= 0:
            return Const(1.0 + 0.0j)
        if hh > m:
            return Const(0.0 + 0.0j)
        if m == 1:
            return Var(lo)
        key = (lo, hi, hh)
        got = memo.get(key)
        if got is not None:
            return got
        half = m // 2
        mid = lo + half - 1
        m_r = m - half
        terms: list[Formula] = []
        if hh <= half:
            terms.append(rec(lo, mid, hh))
        for i in range(hh):
            if i > half or hh - i > m_r:
                continue  # one side cannot reach its count
            t_r = rec(mid + 1, hi, hh - i)
            if i == half:
                exact = rec(lo, mid, i)  # T_L^(half+1) = 0
            elif i == 0:
                exact = minus(Const(1.0 + 0.0j), rec(lo, mid, 1))
            else:
                exact = minus(rec(lo, mid, i), rec(lo, mid, i + 1))
            terms.append(Mul(exact, t_r))
        out = terms[0]
        for t in terms[1:]:
            out = Add(out, t)
        memo[key] = out
        return out

    return rec(1, k, h)


# ---------------------------------------------------------------------------
# formula DSL


def serialize_formula(f: Formula) -> str:
    """Formula DSL text, laid out by the rules of the tree DSL writer."""

    def leaf(g: Var | Const) -> tuple:
        text = f"(var {g.index})" if isinstance(g, Var) else f"(const {fmt_complex(g.value)})"
        return text, None, ()

    node = lambda g, a, b: _layout("(+" if isinstance(g, Add) else "(*", [("", a, ""), ("", b, "")])
    return _write(_fold(f, leaf, node))


def parse_formula(text: str) -> Formula:
    """One formula, read with an explicit stack of the open (+ and (* vertices."""
    r = _Reader(text)
    toks = r.tokens
    stack: list[tuple[int, list[Formula]]] = []  # head token of an open vertex, its operands so far
    i = 0  # the next token
    while True:
        if toks[i] != "(":
            raise r.unexpected("(", i)
        head = toks[i + 1]
        if head == "+" or head == "*":
            stack.append((i + 1, []))
            i += 2
            continue
        if head == "var":
            g: Formula = Var(r.index("var index", i + 2))
        elif head == "const":
            g = Const(r.complex(i + 2, "bad complex literal"))
        elif head in "()":
            raise r.error("expected formula head (+, *, var, const)", i + 1)
        else:
            raise r.error(f"unknown formula head {head!r}", i + 1)
        if toks[i + 3] != ")":
            raise r.unexpected(")", i + 3)
        i += 4
        # hand finished operands to their parents until one still needs a second
        while stack and len(stack[-1][1]) == 1:
            h, (left,) = stack.pop()
            if toks[i] != ")":
                raise r.unexpected(")", i)
            i += 1
            g = Add(left, g) if toks[h] == "+" else Mul(left, g)
        if not stack:
            break
        stack[-1][1].append(g)
    if i < r.end:
        raise r.error(f"trailing input {toks[i]!r}", i)
    return g


__all__ = [
    "Add", "Const", "Formula", "Mul", "Var",
    "balance", "build_threshold_formula", "expand_polynomial",
    "formula_depth", "formula_size", "formula_truth_values", "formula_to_tree",
    "formula_vars", "make_syntactic", "parse_formula", "polys_close",
    "serialize_formula", "tree_to_formula",
]
