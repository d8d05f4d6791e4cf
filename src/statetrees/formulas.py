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

from .errors import NonMultilinearError
from .trees import Leaf, Node, Plus, StateTree, Tensor, _fold, normalize_node

_DROP = 0.0  # coefficients are dropped only when they cancel exactly


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


def formula_size(f: Formula) -> int:
    """Number of leaf vertices (constants and variables)."""
    memo: dict[int, int] = {}

    def rec(g: Formula) -> int:
        got = memo.get(id(g))
        if got is not None:
            return got
        if isinstance(g, (Var, Const)):
            s = 1
        else:
            s = rec(g.left) + rec(g.right)
        memo[id(g)] = s
        return s

    return rec(f)


def formula_depth(f: Formula) -> int:
    memo: dict[int, int] = {}

    def rec(g: Formula) -> int:
        got = memo.get(id(g))
        if got is not None:
            return got
        d = 0 if isinstance(g, (Var, Const)) else 1 + max(rec(g.left), rec(g.right))
        memo[id(g)] = d
        return d

    return rec(f)


def formula_vars(f: Formula) -> frozenset[int]:
    """Variables appearing syntactically in the subtree."""
    memo: dict[int, frozenset[int]] = {}

    def rec(g: Formula) -> frozenset[int]:
        got = memo.get(id(g))
        if got is not None:
            return got
        if isinstance(g, Var):
            s = frozenset((g.index,))
        elif isinstance(g, Const):
            s = frozenset()
        else:
            s = rec(g.left) | rec(g.right)
        memo[id(g)] = s
        return s

    return rec(f)


def formula_eval(f: Formula, point: dict[int, complex]) -> complex:
    if isinstance(f, Var):
        return complex(point[f.index])
    if isinstance(f, Const):
        return complex(f.value)
    a = formula_eval(f.left, point)
    b = formula_eval(f.right, point)
    return a + b if isinstance(f, Add) else a * b


def formula_truth_values(f: Formula, nvars: int) -> np.ndarray:
    """Values on all 2^nvars bit points, x_1 as the most significant bit."""
    points = np.arange(1 << nvars)
    memo: dict[int, np.ndarray] = {}

    def rec(g: Formula) -> np.ndarray:
        got = memo.get(id(g))
        if got is not None:
            return got
        if isinstance(g, Var):
            v = ((points >> (nvars - g.index)) & 1).astype(complex)
        elif isinstance(g, Const):
            v = np.full(1 << nvars, complex(g.value))
        elif isinstance(g, Add):
            v = rec(g.left) + rec(g.right)
        else:
            v = rec(g.left) * rec(g.right)
        memo[id(g)] = v
        return v

    return rec(f)


# ---------------------------------------------------------------------------
# sparse multilinear expansion


def expand_polynomial(f: Formula, max_vars: int = 24,
                      max_terms: int = 1 << 22) -> dict[int, complex]:
    """Monomial map {variable bitmask: coefficient} of a multilinear formula.

    Raises NonMultilinearError as soon as any vertex would multiply two
    monomials sharing a variable, i.e. exactly when some subformula
    computes a polynomial of degree >= 2 in a variable.  Dense formulas
    on many variables are refused via the term budget.
    """
    nv = formula_vars(f)
    if nv and max(nv) > max_vars:
        raise NonMultilinearError(f"expansion capped at {max_vars} variables")

    def rec(g: Formula) -> dict[int, complex]:
        if isinstance(g, Var):
            return {1 << (g.index - 1): 1.0 + 0.0j}
        if isinstance(g, Const):
            return {} if g.value == 0 else {0: complex(g.value)}
        lp = rec(g.left)
        rp = rec(g.right)
        if isinstance(g, Add):
            out = dict(lp)
            for m, c in rp.items():
                nc = out.get(m, 0.0 + 0.0j) + c
                if abs(nc) <= _DROP:
                    out.pop(m, None)
                else:
                    out[m] = nc
            return out
        if len(lp) * len(rp) > max_terms:
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

    return rec(f)


def polys_close(p: dict[int, complex], q: dict[int, complex], tol: float = 1e-9) -> bool:
    for m in set(p) | set(q):
        if abs(p.get(m, 0) - q.get(m, 0)) > tol:
            return False
    return True


def is_multilinear(f: Formula, max_vars: int = 24) -> bool:
    try:
        expand_polynomial(f, max_vars=max_vars)
        return True
    except NonMultilinearError:
        return False


def is_syntactic(f: Formula) -> bool:
    """True when every * vertex has children on disjoint variable sets."""
    if isinstance(f, (Var, Const)):
        return True
    if isinstance(f, Mul) and formula_vars(f.left) & formula_vars(f.right):
        return False
    return is_syntactic(f.left) and is_syntactic(f.right)


def _substitute_zero(f: Formula, var: int) -> Formula:
    if isinstance(f, Var):
        return Const(0.0 + 0.0j) if f.index == var else f
    if isinstance(f, Const):
        return f
    l = _substitute_zero(f.left, var)
    r = _substitute_zero(f.right, var)
    return Add(l, r) if isinstance(f, Add) else Mul(l, r)


def make_syntactic(f: Formula) -> Formula:
    """Remove variable overlaps at * gates without changing the polynomial.

    At an offending * vertex a shared variable must have degree 0 in at
    least one child (otherwise the formula was not multilinear); that
    child's occurrences of it are set to 0, which leaves the child's
    polynomial untouched.  The size never grows.
    """
    nv = formula_vars(f)
    return _make_syntactic(f, max(24, max(nv) if nv else 0))


def _make_syntactic(f: Formula, cap: int) -> Formula:
    if isinstance(f, (Var, Const)):
        return f
    left = _make_syntactic(f.left, cap)
    right = _make_syntactic(f.right, cap)
    if isinstance(f, Add):
        return Add(left, right)
    shared = formula_vars(left) & formula_vars(right)
    if shared:
        lp = expand_polynomial(left, max_vars=cap)
        rp = expand_polynomial(right, max_vars=cap)
        for x in sorted(shared):
            bit = 1 << (x - 1)
            if not any(m & bit for m in lp):
                left = _substitute_zero(left, x)
            elif not any(m & bit for m in rp):
                right = _substitute_zero(right, x)
            else:
                raise NonMultilinearError(
                    f"variable x{x} has positive degree in both factors")
    return Mul(left, right)


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

    return _fold(tree.root, leaf, lambda _, kids: functools.reduce(Mul, kids), plus)


def formula_to_tree(f: Formula, n: int) -> StateTree:
    """State tree whose amplitudes are the (normalized) formula values.

    Three phases: make the formula syntactic, pad + gates to common
    variable sets with free (|0>+|1>) leaves, collapse single-variable
    pieces a + b x_i into leaves a|0> + (a+b)|1>; every vertex is then
    rescaled to unit norm.  Raises on non-multilinear input and on the
    zero function.
    """
    g = make_syntactic(f)
    if formula_vars(g) and max(formula_vars(g)) > n:
        raise ValueError("formula mentions variables beyond n")

    def pad(node: Node | None, have: int, need: int) -> Node | None:
        """Tensor on free (|0>+|1>) leaves for the missing variables."""
        missing = need & ~have
        parts: list[Node] = [Leaf(q + 1, 1.0, 1.0)
                             for q in range(n) if (missing >> q) & 1]
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

    def rec(g2: Formula) -> tuple[complex, Node | None, int]:
        if isinstance(g2, Var):
            return 1.0 + 0.0j, Leaf(g2.index, 0.0, 1.0), 1 << (g2.index - 1)
        if isinstance(g2, Const):
            return complex(g2.value), None, 0
        if isinstance(g2, Mul):
            s1, t1, m1 = rec(g2.left)
            s2, t2, m2 = rec(g2.right)
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
        s1, t1, m1 = rec(g2.left)
        s2, t2, m2 = rec(g2.right)
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
        p1 = pad(t1, m1, union)
        p2 = pad(t2, m2, union)
        return 1.0 + 0.0j, Plus(((s1, p1), (s2, p2))), union

    scalar, node, mask = rec(g)
    full = (1 << n) - 1
    if scalar == 0:
        raise ValueError("the zero function has no state")
    node = pad(node, mask, full)
    if node is None:
        raise ValueError("n must be at least 1")
    if scalar != 1:
        node = Plus(((scalar, node),))
    _, root = normalize_node(node)
    return StateTree(n, root)


# ---------------------------------------------------------------------------
# Brent balancing


def _mul(a: Formula | None, b: Formula) -> Formula:
    """a * b with None meaning the constant 1."""
    return b if a is None else Mul(a, b)


def _locate_split(f: Formula) -> list[tuple[Formula, str]]:
    """Path (vertex, taken-side) from the root to a 1/3..2/3 subformula."""
    total = formula_size(f)
    path: list[tuple[Formula, str]] = []
    cur = f
    while formula_size(cur) * 3 > 2 * total:
        if isinstance(cur, (Var, Const)):
            break
        lsz = formula_size(cur.left)
        rsz = formula_size(cur.right)
        side = "l" if lsz >= rsz else "r"
        path.append((cur, side))
        cur = cur.left if side == "l" else cur.right
    return path


def balance(f: Formula) -> Formula:
    """Depth-O(log size) equivalent of a multilinear formula.

    Repeatedly splits off a subformula I of between 1/3 and 2/3 of the
    leaves, writes the formula as G + H*I with G and H read off the
    root-to-I path (sums accumulate into G, products into H), and
    balances the three pieces.  The input is made syntactic first, which
    guarantees H and I share no variables; that guard is asserted.
    """
    nv = formula_vars(f)
    cap = max(24, max(nv) if nv else 0)
    expand_polynomial(f, max_vars=cap)  # raises on non-multilinear input
    return _balance(_make_syntactic(f, cap))


def _balance(f: Formula) -> Formula:
    if formula_size(f) <= 3:
        return f
    path = _locate_split(f)
    if not path:
        return f
    sub = path[-1][0]
    target = sub.left if path[-1][1] == "l" else sub.right

    g: Formula | None = None  # running sum, None = 0
    h: Formula | None = None  # running product, None = 1
    for vertex, side in reversed(path):
        other = vertex.right if side == "l" else vertex.left
        if isinstance(vertex, Add):
            g = other if g is None else Add(g, other)
        else:
            g = None if g is None else Mul(g, other)
            h = other if h is None else Mul(h, other)

    if h is not None and formula_vars(h) & formula_vars(target):
        raise NonMultilinearError("balancing would multiply shared variables")

    bi = _balance(target)
    bh = None if h is None else _balance(h)
    bg = None if g is None else _balance(g)
    prod = _mul(bh, bi)
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
# amplitude vectors as functions


def state_to_function(v: np.ndarray) -> np.ndarray:
    """The function table x -> amplitude is the vector itself; copy it."""
    if len(v) == 0 or len(v) & (len(v) - 1):
        raise ValueError("amplitude vector length must be a power of 2")
    return np.array(v, dtype=complex)


def function_to_state(table: np.ndarray) -> np.ndarray:
    """Normalize a function table into an amplitude vector."""
    if len(table) == 0 or len(table) & (len(table) - 1):
        raise ValueError("table length must be a power of 2")
    t = np.asarray(table, dtype=complex)
    nrm = float(np.linalg.norm(t))
    if nrm == 0:
        raise ValueError("the all-zero table has no state")
    return t / nrm


# ---------------------------------------------------------------------------
# formula DSL


def serialize_formula(f: Formula) -> str:
    from .dsl import fmt_complex

    def rend(g: Formula, indent: int) -> str:
        if isinstance(g, Var):
            return f"(var {g.index})"
        if isinstance(g, Const):
            return f"(const {fmt_complex(g.value)})"
        op = "+" if isinstance(g, Add) else "*"
        a = rend(g.left, indent + 2)
        b = rend(g.right, indent + 2)
        flat = f"({op} {a} {b})"
        if len(flat) + indent <= 100 and "\n" not in flat:
            return flat
        pad = " " * (indent + 2)
        return f"({op}\n{pad}{a}\n{pad}{b})"

    return rend(f, 0) + "\n"


def parse_formula(text: str) -> Formula:
    from .dsl import _Reader, parse_complex_text

    def node(r) -> Formula:
        r.expect("(")
        head = r.next()
        if head.kind != "atom":
            raise r.error("expected formula head (+, *, var, const)", head)
        if head.text in ("+", "*"):
            left = node(r)
            right = node(r)
            r.expect(")")
            return Add(left, right) if head.text == "+" else Mul(left, right)
        if head.text == "var":
            t = r.next()
            if not t.text.isdigit():
                raise r.error(f"var index must be an integer, got {t.text!r}", t)
            r.expect(")")
            return Var(int(t.text))
        if head.text == "const":
            t = r.next()
            try:
                z = parse_complex_text(t.text)
            except ValueError:
                raise r.error(f"bad complex literal {t.text!r}", t) from None
            r.expect(")")
            return Const(z)
        raise r.error(f"unknown formula head {head.text!r}", head)

    r = _Reader(text)
    f = node(r)
    t = r.peek()
    if t is not None:
        raise r.error(f"trailing input {t.text!r}", t)
    return f


__all__ = [
    "Add", "Const", "Formula", "Mul", "Var",
    "balance", "build_threshold_formula", "expand_polynomial",
    "formula_depth", "formula_eval", "formula_size", "formula_truth_values",
    "formula_to_tree", "formula_vars", "function_to_state", "is_multilinear",
    "is_syntactic", "make_syntactic", "parse_formula", "polys_close",
    "serialize_formula", "state_to_function", "tree_to_formula",
]
