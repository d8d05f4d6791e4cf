"""Output checks that do not reuse the code being timed.

Every reader, writer and evaluator here is a small iterative
re-implementation (no recursion, so deep inputs cannot break the
checker) working straight from the text formats documented in the
package: the tree DSL, the formula DSL, amplitude listings and TSV.
Reference states are built in closed form with numpy, and exact MO
tree sizes by a subset dp of its own (`mo_table`).  The only
package objects used are the frozen tree dataclasses, so a parsed
output can be compared with `==` against a tree the builders made.
"""

from __future__ import annotations

import re

import numpy as np

from statetrees.trees import Leaf, Plus, Tensor

FIDELITY_FLOOR = 1.0 - 1e-9
AMP_TOL = 1e-9

_TOKEN = re.compile(r";[^\n]*|\(|\)|[^\s();]+")
_UFLOAT = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX = re.compile(rf"^([+-]?{_UFLOAT})(?:([+-]{_UFLOAT})i)?$")


class CheckFailed(Exception):
    """An output differs from its independent reference."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _tokens(text: str) -> list[str]:
    return [t for t in _TOKEN.findall(text) if not t.startswith(";")]


def _complex(text: str) -> complex:
    m = _COMPLEX.match(text)
    if m is None:
        raise CheckFailed(f"bad complex literal {text!r}")
    return complex(float(m.group(1)), float(m.group(2)) if m.group(2) else 0.0)


# ---------------------------------------------------------------------------
# tree DSL


def read_tree(text: str):
    """Root node of tree DSL text, built with an explicit stack."""
    toks = _tokens(text)
    # frames: [head, children, pending coefficient]
    stack: list[list] = []
    done = None
    i = 0
    while i < len(toks):
        t = toks[i]
        if t == "(":
            head = toks[i + 1]
            if head == "leaf":
                node = Leaf(int(toks[i + 2]), _complex(toks[i + 3]), _complex(toks[i + 4]))
                require(toks[i + 5] == ")", "leaf not closed")
                i += 6
                done = node
            elif head in ("+", "*"):
                stack.append([head, [], None])
                i += 2
                continue
            else:  # "(COEFF node)" edge of a + vertex
                require(stack and stack[-1][0] == "+", f"unexpected {head!r}")
                stack[-1][2] = _complex(head)
                i += 2
                continue
        elif t == ")":
            require(bool(stack), "unbalanced ')'")
            frame = stack[-1]
            if frame[0] == "+" and frame[2] is not None:
                frame[2] = None  # closes an edge; its child is already attached
                i += 1
                continue
            stack.pop()
            done = Plus(tuple(frame[1])) if frame[0] == "+" else Tensor(tuple(frame[1]))
            i += 1
        else:
            raise CheckFailed(f"unexpected token {t!r}")
        if stack:
            frame = stack[-1]
            frame[1].append((frame[2], done) if frame[0] == "+" else done)
            done = None
    require(not stack and done is not None, "tree text incomplete")
    return done


def plus_chain_text(depth: int, bottom: str) -> str:
    """`depth` nested single-child + vertices (coefficient 1) over `bottom`."""
    return "(+ (1 " * depth + bottom + "))" * depth + "\n"


def product_text(alphas: list[float], betas: list[float]) -> str:
    leaves = " ".join(f"(leaf {q + 1} {a!r} {b!r})" for q, (a, b) in enumerate(zip(alphas, betas)))
    return f"(* {leaves})"


def relabel_text(text: str, perm: list[int]) -> str:
    """Move every leaf on qubit q to qubit perm[q - 1]."""
    return re.sub(r"\(leaf (\d+) ", lambda m: f"(leaf {perm[int(m.group(1)) - 1]} ", text)


def _children(node):
    if isinstance(node, Leaf):
        return ()
    if isinstance(node, Tensor):
        return node.children
    return tuple(ch for _, ch in node.children)


def tree_shape(node) -> tuple[int, int]:
    """(leaf count, depth in edges)."""
    leaves = 0
    deepest = 0
    stack = [(node, 0)]
    while stack:
        nd, d = stack.pop()
        if isinstance(nd, Leaf):
            leaves += 1
            deepest = max(deepest, d)
        else:
            stack.extend((ch, d + 1) for ch in _children(nd))
    return leaves, deepest


def _kron_sorted(parts: list[tuple[int, np.ndarray]]) -> tuple[int, np.ndarray]:
    """Product of (qubit mask, vector) pairs, axes in ascending qubit order."""
    order: list[int] = []
    out = np.ones(1, dtype=complex)
    full = 0
    for m, v in parts:
        require(not (m & full), "tensor children overlap")
        full |= m
        order += [q for q in range(m.bit_length()) if (m >> q) & 1]
        out = np.kron(out, v)
    target = sorted(order)
    if order != target:
        out = out.reshape([2] * len(order)).transpose([order.index(q) for q in target]).reshape(-1)
    return full, out


def eval_tree(node, n: int) -> tuple[np.ndarray, bool]:
    """(amplitude vector over qubits 1..n, manifestly orthogonal?)."""
    manifest = True
    results: dict[int, tuple[int, np.ndarray]] = {}
    stack = [(node, False)]
    while stack:
        nd, expanded = stack.pop()
        if isinstance(nd, Leaf):
            results[id(nd)] = (1 << (nd.qubit - 1), np.array([nd.alpha, nd.beta], dtype=complex))
            continue
        kids = _children(nd)
        if not expanded:
            stack.append((nd, True))
            stack.extend((ch, False) for ch in kids)
            continue
        parts = [results.pop(id(ch)) for ch in kids]
        if isinstance(nd, Tensor):
            results[id(nd)] = _kron_sorted(parts)
            continue
        mask = parts[0][0]
        require(all(m == mask for m, _ in parts), "plus children on different qubits")
        support = np.zeros(len(parts[0][1]), dtype=int)
        acc = np.zeros(len(parts[0][1]), dtype=complex)
        for (coeff, _), (_, v) in zip(nd.children, parts):
            support += np.abs(v) > AMP_TOL
            acc += coeff * v
        manifest = manifest and int(support.max()) <= 1
        results[id(nd)] = (mask, acc)
    mask, vec = results[id(node)]
    require(mask == (1 << n) - 1, "root does not cover qubits 1..n")
    return vec, manifest


# ---------------------------------------------------------------------------
# formula DSL


def read_formula(text: str) -> list[tuple]:
    """Formula as a post-order list of (op, arg): ('var', i), ('const', z), ('+'|'*', None)."""
    out: list[tuple] = []
    ops: list[str] = []
    toks = _tokens(text)
    i = 0
    while i < len(toks):
        t = toks[i]
        if t == "(":
            head = toks[i + 1]
            if head == "var":
                out.append(("var", int(toks[i + 2])))
                i += 4
            elif head == "const":
                out.append(("const", _complex(toks[i + 2])))
                i += 4
            else:
                require(head in ("+", "*"), f"unknown formula head {head!r}")
                ops.append(head)
                i += 2
        else:
            require(t == ")" and bool(ops), "unbalanced formula text")
            out.append((ops.pop(), None))
            i += 1
    require(not ops, "formula text incomplete")
    return out


def formula_values(postorder: list[tuple], points: np.ndarray, n: int) -> np.ndarray:
    """Values at the given bit points (x_1 is the most significant bit)."""
    stack: list[np.ndarray] = []
    for op, arg in postorder:
        if op == "var":
            stack.append(((points >> (n - arg)) & 1).astype(complex))
        elif op == "const":
            stack.append(np.full(len(points), arg, dtype=complex))
        else:
            b = stack.pop()
            a = stack.pop()
            stack.append(a + b if op == "+" else a * b)
    require(len(stack) == 1, "formula does not reduce to one value")
    return stack[0]


# ---------------------------------------------------------------------------
# listings and tables


def read_amplitudes(text: str, n: int) -> np.ndarray:
    """Dense vector from an amplitude listing; omitted rows are zero."""
    toks = text.split()
    require(len(toks) % 3 == 0, "amplitude listing is not BITS RE IM rows")
    bits = toks[0::3]
    require(all(len(b) == n for b in bits), f"amplitude rows are not {n} bits wide")
    v = np.zeros(1 << n, dtype=complex)
    idx = np.array([int(b, 2) for b in bits], dtype=np.int64)
    v[idx] = np.array(toks[1::3], dtype=float) + 1j * np.array(toks[2::3], dtype=float)
    return v


def read_tsv(text: str) -> list[dict[str, str]]:
    lines = text.rstrip("\n").split("\n")
    head = lines[0].split("\t")
    return [dict(zip(head, ln.split("\t"))) for ln in lines[1:]]


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return float(abs(np.vdot(a, b)) ** 2 / (np.vdot(a, a).real * np.vdot(b, b).real))


def require_state(got: np.ndarray, want: np.ndarray, what: str) -> None:
    require(got.shape == want.shape, f"{what}: length {got.shape} != {want.shape}")
    err = float(np.max(np.abs(got - want)))
    require(err <= AMP_TOL, f"{what}: max amplitude error {err:.3e}")


# ---------------------------------------------------------------------------
# exact MO tree size


def mo_table(rows: list[int], n: int) -> list[int]:
    """M of every column subset of the k x n matrix `rows`, classical convention.

    Entry `mask` (bit j = column j, column 0 the leftmost) comes from the
    recurrence itself: one column costs 2 if it is zero and 1 otherwise;
    a larger set S costs the least, over splits into non-empty I and J,
    of (M(I) + M(J)) * 2^(rank I + rank J - rank S).  Ranks come from a
    pivot-indexed echelon basis per subset, and each split is found from
    the highest column of S upwards.  Entry 0 is unused.
    """
    k = len(rows)
    cols = [sum(((r >> (n - 1 - j)) & 1) << i for i, r in enumerate(rows)) for j in range(n)]
    size = 1 << n
    rank = [0] * size
    pivots: list[tuple[int, ...]] = [(0,) * k] * size  # pivots[mask][p]: basis vector led by bit p
    val = [0] * size
    for mask in range(1, size):
        top = mask.bit_length() - 1
        prev = mask ^ (1 << top)
        v = cols[top]
        piv = pivots[prev]
        for p in range(k - 1, -1, -1):
            if (v >> p) & 1 and piv[p]:
                v ^= piv[p]
        if v:
            rank[mask] = rank[prev] + 1
            pivots[mask] = piv[:v.bit_length() - 1] + (v,) + piv[v.bit_length():]
        else:
            rank[mask] = rank[prev]
            pivots[mask] = piv
        if prev == 0:
            val[mask] = 1 if cols[top] else 2
            continue
        best = None
        s = 0  # the subsets of prev in increasing order; I = top column + s, J = the rest
        while s != prev:
            i_mask = (1 << top) | s
            j_mask = prev ^ s
            cost = (val[i_mask] + val[j_mask]) << (rank[i_mask] + rank[j_mask] - rank[mask])
            if best is None or cost < best:
                best = cost
            s = (s - prev) & prev
        val[mask] = best
    return val


def random_rows(seed: int, index: int, k: int, n: int) -> list[int]:
    """Rows of the uniform k x n matrix drawn for trial `index` of a seeded
    experiment: Philox4x64 keyed by (seed, index), as the package documents."""
    key = np.array([seed & (1 << 64) - 1, index & (1 << 64) - 1], dtype=np.uint64)
    bits = np.random.Generator(np.random.Philox(key=key)).integers(0, 2, size=(k, n))
    return [int("".join(str(int(x)) for x in row), 2) for row in bits]


# ---------------------------------------------------------------------------
# closed-form reference states


def bits_of(n: int) -> np.ndarray:
    """(2^n, n) array; column q - 1 holds qubit q (qubit 1 = MSB)."""
    xs = np.arange(1 << n, dtype=np.int64)
    return ((xs[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.int64)


def uniform(mask: np.ndarray) -> np.ndarray:
    return mask.astype(complex) / np.sqrt(mask.sum())


def parity_state(n: int, j: int) -> np.ndarray:
    return uniform(bits_of(n).sum(axis=1) % 2 == j)


def cat_state(n: int) -> np.ndarray:
    v = np.zeros(1 << n, dtype=complex)
    v[0] = v[-1] = 2 ** -0.5
    return v


def cluster_state(n: int) -> np.ndarray:
    b = bits_of(n)
    signs = 1 - 2 * ((b[:, :-1] * b[:, 1:]).sum(axis=1) % 2)
    return signs.astype(complex) / 2 ** (n / 2)


def coset_state(rows: list[int], b: int, n: int) -> np.ndarray:
    xs = np.arange(1 << n, dtype=np.int64)
    keep = np.ones(1 << n, dtype=bool)
    k = len(rows)
    for i, r in enumerate(rows):
        par = np.bitwise_count(xs & r) & 1
        keep &= par == ((b >> (k - 1 - i)) & 1)
    return uniform(keep)


def relabel_state(v: np.ndarray, perm: list[int]) -> np.ndarray:
    """State after moving qubit q to qubit perm[q - 1]."""
    n = len(perm)
    src = [0] * n
    for q, p in enumerate(perm):
        src[p - 1] = q
    return v.reshape([2] * n).transpose(src).reshape(-1)
