"""Quantum state trees: leaves, superposition (+) and tensor-product gates.

A tree node is one of

* ``Leaf(qubit, alpha, beta)``   -- the 1-qubit state alpha|0> + beta|1>,
* ``Plus(children)``             -- weighted sum; children share a qubit set,
  one complex coefficient per edge,
* ``Tensor(children)``          -- product; children on disjoint qubit sets.

Every vertex of a valid tree represents a normalized state of the qubits
it covers.  Basis convention, used by every module in this package:
qubit 1 is the most significant bit, so the amplitude of |x1 x2 .. xn>
sits at index sum_i x_i 2^(n-i) of the amplitude vector.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import InvalidTreeError, NonUnitaryError, OversizeError

TOLERANCE = 1e-9
MAX_QUBITS = 20
_OVERFLOW = "amplitudes or their inner products overflow a float"
_OUTSIDE = "tree uses qubits outside 1..n"


@dataclass(frozen=True)
class Leaf:
    qubit: int
    alpha: complex
    beta: complex


@dataclass(frozen=True)
class Plus:
    children: tuple[tuple[complex, "Node"], ...]


@dataclass(frozen=True)
class Tensor:
    children: tuple["Node", ...]


Node = Union[Leaf, Plus, Tensor]


@dataclass(frozen=True)
class StateTree:
    n: int
    root: Node


def _fold(root, leaf, table: dict, path: list[int] | None = None, found: Sequence = (), keep=None):
    """Post-order fold over the vertices under `root`, with an explicit stack.

    table maps a vertex type to (operands, callback): operands(node) lists
    its children, callback(node, kids) gets their results in child order.
    leaf(x) gives the result of anything whose type is not in the table.
    When `path` is a list, it holds the child indices from `root` down to
    the vertex whose callback is running.

    Each distinct vertex is folded once.  A vertex with several parent
    edges keeps its result by identity until its last parent edge has read
    it; every other result is dropped once its parent has read it.  The
    one exception: a subtree whose walk added to `found` (the list the
    callbacks record their findings in) is not kept but walked again at
    every path to it, so each finding is made with its own path.  Where
    given, keep(result) is what a kept vertex's parents read instead.
    """
    if type(root) not in table:
        return leaf(root)
    shared = _shared(root, table)
    kept: dict[int, list] = {}  # shared vertex id -> [its result, parent edges yet to read it]
    path = [] if path is None else path
    # open vertex, its unread children, their results, len(found) when its walk began
    stack = [(root, iter(table[type(root)][0](root)), [], len(found))]
    while True:
        node, unread, kids, start = stack[-1]
        for child in unread:
            if type(child) not in table:
                path.append(len(kids))
                kids.append(leaf(child))
                path.pop()
            elif id(child) in kept:
                entry = kept[id(child)]
                kids.append(entry[0])
                entry[1] -= 1
                if not entry[1]:
                    del kept[id(child)]
            else:
                path.append(len(kids))
                stack.append((child, iter(table[type(child)][0](child)), [], len(found)))
                break
        else:
            result = table[type(node)][1](node, kids)
            stack.pop()
            if id(node) in shared and len(found) == start:
                result = result if keep is None else keep(result)
                kept[id(node)] = [result, shared[id(node)] - 1]
            if not stack:
                return result
            path.pop()
            stack[-1][2].append(result)


def _shared(root, table: dict) -> dict[int, int]:
    """id -> number of parent edges, for each vertex under root (of a type
    in _fold's table) that has more than one; one pass over the distinct
    vertices."""
    edges: dict[int, int] = {}
    todo = [root]
    while todo:
        node = todo.pop()
        for child in table[type(node)][0](node):
            if type(child) in table:
                if id(child) in edges:
                    edges[id(child)] += 1
                else:
                    edges[id(child)] = 1
                    todo.append(child)
    return {key: count for key, count in edges.items() if count > 1}


def _terms(node: Plus) -> list[Node]:
    return [ch for _, ch in node.children]


def _vertices(tensor, plus=None) -> dict:
    """_fold's table for a tree: tensor(node, kids), and plus(node, kids)
    (tensor's callback when not given)."""
    return {Tensor: (operator.attrgetter("children"), tensor), Plus: (_terms, plus or tensor)}


def _union(masks: Iterable[int]) -> int:
    return functools.reduce(operator.or_, masks, 0)


def qubit_mask(node: Node) -> int:
    """Bitmask of the qubits under a node (bit q-1 for qubit q)."""
    return _fold(node, lambda lf: 1 << (lf.qubit - 1), _vertices(lambda _, ms: _union(ms)))


def mask_qubits(mask: int) -> list[int]:
    """The qubits of a mask, ascending: one step per set bit, not per bit."""
    qubits = []
    while mask:
        low = mask & -mask
        qubits.append(low.bit_length())
        mask ^= low
    return qubits


def tree_size(tree: StateTree | Node) -> int:
    """Number of leaf vertices."""
    node = tree.root if isinstance(tree, StateTree) else tree
    return _fold(node, lambda _: 1, _vertices(lambda _, ks: sum(ks)))


def depth(tree: StateTree | Node) -> int:
    """Maximum number of edges from the root down to a leaf."""
    node = tree.root if isinstance(tree, StateTree) else tree
    return _fold(node, lambda _: 0, _vertices(lambda _, ks: 1 + max(ks)))


# ---------------------------------------------------------------------------
# vector engine: fold callbacks on (qubit mask, amplitudes, axis order)
#
# A result's amplitudes are a vector whose axes are its qubits in `order`,
# most significant first, or in sorted order where `order` is None.  A
# tensor vertex's amplitudes stay unformed: the tuple of its children's
# formed results, to be multiplied out in child order, with `order` the
# concatenation of their axes; one with several parent edges is kept
# multiplied out, so its parents do not each multiply it again.  Vectors
# are put in sorted order only where order-dependent arithmetic (a norm)
# or a caller reads them.

_BLOCK = 1 << 14  # amplitudes a + vertex adds at a time: 256 KiB of complex
_ONE = np.ones(1, dtype=complex)


def _leaf_vector(node: Leaf) -> tuple:
    return 1 << (node.qubit - 1), np.array([node.alpha, node.beta], dtype=complex), None


def _axes(mask: int, order: tuple | None) -> tuple[int, ...]:
    return tuple(mask_qubits(mask)) if order is None else order


def _formed(r: tuple) -> tuple:
    """r with its amplitudes a vector: a product is multiplied out in child order."""
    mask, amps, order = r
    if type(amps) is not tuple:
        return r
    out = _ONE
    for _, v, _ in amps:
        out = np.multiply.outer(out, v).ravel()
    return mask, out, order


def _reordered(r: tuple, order: tuple | None) -> np.ndarray:
    """r's amplitudes as a vector in `order` (sorted order where None)."""
    mask, v, own = _formed(r)
    if own == order:
        return v
    src = _axes(mask, own)
    perm = [src.index(q) for q in _axes(mask, order)]
    return v.reshape([2] * len(src)).transpose(perm).reshape(-1)


def _tensor_vector(kids: list[tuple]) -> tuple:
    """The product of the children, unformed: their formed results in child order."""
    factors = tuple(_formed(r) for r in kids)
    full = 0
    ordered = True  # each child sorted, its qubits all above the previous children's
    for m, _, o in factors:
        ordered = ordered and o is None and (m & -m) > full
        full |= m
    return full, factors, None if ordered else tuple(q for m, _, o in factors for q in _axes(m, o))


def _blocks(amps):
    """(rows, amplitudes, out) for a vector or an unformed product, a block
    of rows at a time; out is room of the block's size that may be written
    (the block itself where it was made here).  Sizes are powers of 2, so
    every block of one vector has the same size."""
    if type(amps) is not tuple:
        buf = np.empty(min(_BLOCK, amps.size), dtype=complex)
        for lo in range(0, amps.size, _BLOCK):
            yield slice(lo, lo + _BLOCK), amps[lo:lo + _BLOCK], buf
        return
    *head, (_, last, _) = amps
    prefix = _ONE
    for _, v, _ in head:
        prefix = np.multiply.outer(prefix, v).ravel()
    step = min(prefix.size, max(1, _BLOCK // last.size))
    out = None
    for lo in range(0, prefix.size, step):
        out = np.multiply.outer(prefix[lo:lo + step], last, out=out)
        vals = out.reshape(-1)
        yield slice(lo * last.size, (lo + step) * last.size), vals, vals


def _plus_vector(node: Plus, kids: list[tuple], watch=None) -> tuple:
    """The coefficient-weighted sum of the children, in the first child's
    axis order, added into one vector a block at a time; no child's vector
    is formed unless its axis order differs or the sum fits one block,
    which takes one whole-vector step per child.  watch(i, rows,
    amplitudes) sees child i's amplitudes at each block before they are
    added."""
    mask, _, order = kids[0]
    acc = np.zeros(1 << mask.bit_count(), dtype=complex)
    for i, ((coeff, _), r) in enumerate(zip(node.children, kids)):
        # operands in the order of `acc + coeff * v`: swapping them moves last bits
        if acc.size <= _BLOCK:
            v = _reordered(r, order)
            if watch is not None:
                watch(i, slice(None), v)
            # a product is multiplied out here, so it is scaled in place
            np.add(acc, np.multiply(coeff, v, v if type(r[1]) is tuple else None), acc)
            continue
        for rows, vals, out in _blocks(r[1] if r[2] == order else _reordered(r, order)):
            if watch is not None:
                watch(i, rows, vals)
            np.multiply(coeff, vals, out)
            part = acc[rows]
            np.add(part, out, part)
    return mask, acc, order


def _faults(node: Tensor | Plus, kids: list) -> list[tuple]:
    """Structural faults of a vertex: (rule, child index or None, what
    validate measures, what evaluate raises)."""
    kind = "tensor" if isinstance(node, Tensor) else "plus"
    if not kids:
        return [("empty-children", None, f"{kind} with 0 children", f"{kind} vertex with no children")]
    if kind == "plus":
        return [("plus-children-qubitset-mismatch", i, f"child {i}",
                 "plus children cover different qubit sets")
                for i, r in enumerate(kids) if r[0] != kids[0][0]]
    out, seen = [], 0
    for i, r in enumerate(kids):
        if r[0] & seen:
            out.append(("tensor-children-overlap", i, f"child {i}", "tensor children overlap on qubits"))
        seen |= r[0]
    return out


def _checked(node: Tensor | Plus, kids, report, plus=_plus_vector):
    """Tensor and plus callback over the engine's results that checks the
    structure first: report(fault) for each of _faults, and amplitudes None
    when the vertex or a child is faulty.  plus(node, kids) sums a + vertex
    with no fault at or below it."""
    faults = _faults(node, kids)
    for fault in faults:
        report(fault)
    if faults or any(r[1] is None for r in kids):
        for r in kids:  # a product is multiplied out even here: its overflow raises in validate
            _formed(r)
        return _union(r[0] for r in kids), None, None
    if isinstance(node, Tensor):
        return _tensor_vector(kids)
    return plus(node, kids)


def _after(path: list[int], child: int | None = None) -> tuple:
    """Sort key of a finding made once the subtree at `path` (or at its
    child `child`) is walked; a stable sort on it gives depth-first order."""
    return (*path, math.inf) if child is None else (*path, child, math.inf)


def _vector(node: Node, plus=_plus_vector, n: int | None = None) -> tuple[int, np.ndarray]:
    """(qubit mask, amplitude vector in sorted qubit order) of a node.

    Raises InvalidTreeError for the first structural fault in depth-first
    order, where a fault between two children comes right after the
    subtree of the later one; given n, a leaf outside qubits 1..n is a
    fault too.  plus(node, kids) sums each + vertex that has no fault at
    or below it.
    """
    path: list[int] = []
    faults: list[tuple[tuple, str]] = []
    report = lambda fault: faults.append((_after(path, fault[1]), fault[3]))

    def leaf(lf: Leaf):
        if n is not None and not 1 <= lf.qubit <= n:
            faults.append((_after(path), _OUTSIDE))
            return 0, None, None
        return _leaf_vector(lf)

    r = _fold(node, leaf, _vertices(lambda nd, kids: _checked(nd, kids, report, plus)), path, faults, _formed)
    if faults:
        raise InvalidTreeError(min(faults, key=lambda f: f[0])[1])
    return r[0], _reordered(r, None)


def evaluate(tree: StateTree) -> np.ndarray:
    """Dense amplitude vector of length 2^n.

    Checks structural invariants (qubit sets, ranges) but not per-vertex
    normalization, so it also evaluates the unnormalized trees produced
    by :func:`restrict`.  A vector that overflows a float is refused with
    ValueError.
    """
    return _checked_vector(tree)


def _checked_vector(tree: StateTree, plus=_plus_vector) -> np.ndarray:
    """evaluate(), with plus() passed on to _vector (numpy's overflow
    warnings off: inf and NaN reach the vector, which is then refused)."""
    if tree.n > MAX_QUBITS:
        raise OversizeError(f"n={tree.n} exceeds max_qubits={MAX_QUBITS}")
    with np.errstate(over="ignore", invalid="ignore"):
        m, v = _vector(tree.root, plus, tree.n)
    if m != (1 << tree.n) - 1:
        raise InvalidTreeError("root does not cover all qubits 1..n")
    if not np.isfinite(v).all():  # inf * 0 is NaN: a product or sum never hides an overflow
        raise ValueError(_OVERFLOW)
    return v


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Violation:
    path: tuple[int, ...]
    rule: str
    measured: str


def _norm(v: np.ndarray) -> float:
    """np.linalg.norm(v), or where its squares overflow, the norm scaled by
    the largest real or imaginary part (inf only if the norm itself is)."""
    with np.errstate(over="ignore"):
        nrm = float(np.linalg.norm(v))
    if math.isinf(nrm):
        top = float(np.max(np.abs([v.real, v.imag])))
        nrm = top * float(np.linalg.norm(v / top))
    return nrm


def validate(tree: StateTree, tol: float = TOLERANCE) -> list[Violation]:
    """Check all structural and normalization invariants.

    Violations come back as data, in depth-first order; an empty list
    means the tree is valid.  A tree whose vectors or norms overflow a
    float is refused with ValueError: no norm can be read off them.  A
    finite norm is read even where its squares overflow.
    """
    if tree.n > MAX_QUBITS:
        raise OversizeError(f"n={tree.n} exceeds max_qubits={MAX_QUBITS}")
    path: list[int] = []
    found: list[tuple[tuple, Violation]] = []

    def report(rule: str, child: int | None, measured: str) -> None:
        found.append((_after(path, child), Violation(tuple(path), rule, measured)))

    def normalized(r: tuple, nrm: float) -> tuple:
        if not math.isfinite(nrm):
            raise ValueError(_OVERFLOW)
        if abs(nrm - 1.0) > tol:
            report("vertex-not-normalized", None, f"norm {nrm!r}")
        return r

    leaf_norms: dict[tuple, float] = {}  # (alpha, beta) -> norm: a tree has few distinct leaves

    def leaf(node: Leaf):
        if not 1 <= node.qubit <= tree.n:
            report("leaf-qubit-range", None, f"qubit {node.qubit}")
            return 0, None, None
        r = _leaf_vector(node)
        key = node.alpha, node.beta
        if key not in leaf_norms:
            leaf_norms[key] = _norm(r[1])
        return normalized(r, leaf_norms[key])

    # an overlap is reported right after the child's subtree, a mismatch after them all
    fault = lambda f: report(f[0], f[1] if f[0] == "tensor-children-overlap" else None, f[2])

    def plus(nd: Plus, kids: list[tuple]) -> tuple:
        r = _plus_vector(nd, kids)
        return normalized(r, _norm(_reordered(r, None)))

    vertex = lambda nd, kids: _checked(nd, kids, fault, plus)
    try:
        # a product has no norm to check: its overflow raises instead, so an
        # unformed one at the root is multiplied out too
        with np.errstate(over="raise", invalid="raise"):
            mask = _formed(_fold(tree.root, leaf, _vertices(vertex), path, found, _formed))[0]
    except FloatingPointError:
        raise ValueError(_OVERFLOW) from None
    out = [v for _, v in sorted(found, key=lambda f: f[0])]
    if mask != (1 << tree.n) - 1:
        out.append(Violation((), "root-qubitset-incomplete",
                             f"covers {sorted(mask_qubits(mask))}, n={tree.n}"))
    return out


# a norm^2 below this keeps every gram entry finite, with room for rounding
_ROOM = np.finfo(float).max / 4


def _disjoint(pair: tuple[np.ndarray, np.ndarray]) -> bool:
    """Whether no index is true in both of a pair of bool arrays."""
    return not np.logical_and(*pair).any()


def _below_room(nrm2: float, r: tuple) -> bool:
    """Whether a child's norm^2 is below _ROOM, given nrm2, its sum in the
    child's axis order.  Between two orders a sum of N <= 2^20 nonnegative
    terms moves by about N eps, so only a NaN or an nrm2 within 2^-30 of
    _ROOM reads the child again in sorted order."""
    if abs(nrm2 - _ROOM) > _ROOM * 2.0**-30:
        return nrm2 < _ROOM
    v = _reordered(r, None)
    return np.vdot(v, v).real < _ROOM


def _factors(r: tuple, order: tuple | None) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """r's amplitudes laid out in `order`, as factors: (the positions in
    `order` of a factor's axes, its amplitudes as a 2 x .. x 2 tensor).
    Their outer product in list order has the bits of _formed(r): a
    product starts from _ONE, as _formed does."""
    mask, amps, _ = r
    pos = {q: i for i, q in enumerate(_axes(mask, order))}
    parts = ((0, _ONE, None), *amps) if type(amps) is tuple else (r,)
    return [(tuple(pos[q] for q in _axes(m, o)), v.reshape((2,) * m.bit_count())) for m, v, o in parts]


def _runs(vs: list[list[tuple]], width: int) -> list[tuple[int, int, list[tuple]]]:
    """The children as runs (lo, hi, factors) for _rows: neighbours whose
    factors sit at the same positions and hold fewer than `width`
    amplitudes, as a product of leaves does, share one run, each factor
    stacked over the run; any other child is a run of its own, a view of
    its factors.  So a stack is smaller than the rows it stands for."""
    runs = []
    for i, factors in enumerate(vs):
        pos = [p for p, _ in factors]
        if runs and pos == runs[-1][2] and sum(t.size for _, t in factors) < width:
            runs[-1][1] = i + 1
        else:
            runs.append([i, i + 1, pos])
    return [(lo, hi, [(p, np.stack([vs[i][j][1] for i in range(lo, hi)]) if hi - lo > 1 else t[None])
                      for j, (p, t) in enumerate(vs[lo])])
            for lo, hi, _ in runs]


def _rows(factors: list[tuple], fixed: int, block: int, rows: np.ndarray) -> None:
    """Write block number `block` of the vectors of a run of children into
    `rows`, one row each.  factors are (positions, amplitudes with a
    leading axis over the run); the leading `fixed` axes hold the block's
    bits, and only the factors' entries on those bits are read.  Each
    entry is multiplied in factor order, first operand first, which gives
    _formed's bits; the last product is written into `rows` itself where no
    axes are to be swapped."""
    g = len(rows)
    axes = [p for pos, _ in factors for p in pos if p >= fixed]
    into = rows if axes == sorted(axes) else np.empty_like(rows)
    out = None
    for i, (pos, t) in enumerate(factors):
        sub = t[(slice(None), *(block >> (fixed - 1 - p) & 1 if p < fixed else slice(None) for p in pos))]
        sub = sub.reshape(g, -1)
        if out is None:
            out = sub
            continue
        m, s = out.shape[1], sub.shape[1]
        cols = (into if i == len(factors) - 1 else np.empty((g, m * s), dtype=complex)).reshape(g, m, s)
        # np.multiply.outer's products along the shorter side, one operand
        # broadcast: numpy buffers two broadcast operands, and its outer of
        # two 1-entry arrays rounds otherwise
        if s < m:
            for j in range(s):
                np.multiply(out, sub[:, j:j + 1], cols[:, :, j])
        else:
            for j in range(m):
                np.multiply(out[:, j:j + 1], sub, cols[:, j])
        out = cols.reshape(g, -1)
    if len(factors) == 1:
        into[...] = out
    if into is not rows:
        shape = (g,) + (2,) * len(axes)
        rows.reshape(shape)[...] = into.reshape(shape).transpose(0, *(1 + np.argsort(axes)))


def _gram_labels(vs: list[list[tuple]], tol: float) -> tuple[bool, bool, bool]:
    """(manifest, orthogonal, finite) of one + vertex's children, given as
    _factors in the vertex's layout: read off their |v| > tol supports and
    their k x k gram, a block of rows at a time through one (k, block)
    buffer.  A block is the largest power of 2 of rows for which the
    buffer holds at most 4 _BLOCK amplitudes (1 MiB), or as many as the
    gram where that is more: its size does not grow with the children's
    width, and a vertex of many children adds few k x k products.
    Children that are products of leaves at the same positions are read
    together (_runs), so such a vertex pays its numpy calls per block, not
    per child."""
    n, k = sum(len(pos) for pos, _ in vs[0]), len(vs)
    free = min(n, max(4 * _BLOCK // k, k).bit_length() - 1)  # a block is 2^free rows
    buf = np.empty((k, 1 << free), dtype=complex)
    runs = _runs(vs, 1 << free)
    manifest = True
    for block in range(1 << (n - free)):
        for lo, hi, factors in runs:
            _rows(factors, n - free, block, buf[lo:hi])
        manifest = manifest and not np.any((np.abs(buf) > tol).sum(0) > 1)
        part = buf @ buf.conj().T
        gram = part if block == 0 else np.add(gram, part, gram)
    del buf, part  # the labels read the gram alone
    finite = bool(np.isfinite(gram).all())  # NaN would pass the test below
    np.fill_diagonal(gram, 0)  # a non-finite diagonal raises in classify_tree whatever the labels
    return manifest, not np.max(np.abs(gram)) > tol, finite


def classify_tree(tree: StateTree, tol: float = TOLERANCE) -> str:
    """'manifestly-orthogonal', 'orthogonal' or 'general' (strongest wins).

    A tree is manifestly orthogonal when every + vertex combines children
    with disjoint basis supports, orthogonal when the children are merely
    pairwise orthogonal.  Only structural validity is required, so
    unnormalized trees can be classified too; a structural fault or an
    overflowing vector raises what evaluate() raises, and so do inner
    products that overflow: no label can be read off them.

    A + vertex's labels come from its children's |v| > tol supports and
    their gram, with exact shortcuts that build no gram.  Where tol >= 0
    and no amplitude index is exactly nonzero in two children, every
    off-diagonal product has an exact zero factor, so the off-diagonal
    gram is exactly 0 and the tol supports, subsets of the exact ones, are
    disjoint: the vertex keeps both labels.  Where tol < 0, every |v| and
    every gram modulus is more than tol, so the vertex loses both; a NaN
    tol passes no test, so the vertex keeps both.  Only finiteness is
    left, and it holds when each child's norm^2 is below a quarter of the
    largest float: then by Cauchy-Schwarz every gram entry stays finite
    however it is rounded.  A child whose norm^2 is not (NaN, inf or near
    the limit) sends the vertex to the gram.  The supports and the norms
    are read block by block as the vertex adds its children.  The gram,
    where an overlap or a norm^2 not below the limit calls for it, is read
    block by block too, in the vertex's own layout: each child writes its
    rows of a block into one (k, block) buffer, a product child from its
    factors' entries on them, so no child is formed, put in sorted order
    or stacked for it.
    """
    manifest = orthogonal = finite = True

    def plus(nd: Plus, kids: list[tuple]) -> tuple:
        nonlocal manifest, orthogonal, finite
        if len(kids) < 2:
            return _plus_vector(nd, kids)
        seen = np.zeros(1 << kids[0][0].bit_count(), dtype=bool) if tol >= 0 else None  # exact supports
        overlap = False
        norms = [0.0] * len(kids)  # norm^2 of each child, summed block by block

        def watch(i: int, rows: slice, vals: np.ndarray) -> None:
            nonlocal overlap
            if overlap:
                return
            if seen is not None:
                held = vals.astype(bool)  # a nonzero test, faster than `!= 0`
                part = seen[rows]
                if not _disjoint((part, held)):
                    overlap = True
                    return
                part |= held
            norms[i] += np.vdot(vals, vals).real

        out = _plus_vector(nd, kids, watch)
        if overlap or not all(_below_room(s, r) for s, r in zip(norms, kids)):
            m, o, f = _gram_labels([_factors(r, out[2]) for r in kids], tol)
            manifest, orthogonal, finite = manifest and m, orthogonal and o, finite and f
        elif tol < 0:  # every |v| > tol and every finite gram modulus > tol: both labels go
            manifest = orthogonal = False
        return out

    _checked_vector(tree, plus)
    if not finite:
        raise ValueError(_OVERFLOW)
    if not orthogonal:
        return "general"
    if not manifest:
        return "orthogonal"
    return "manifestly-orthogonal"


# ---------------------------------------------------------------------------
# metrics


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2 for same-length amplitude vectors."""
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch {a.shape} vs {b.shape}")
    return float(abs(np.vdot(a, b)) ** 2)


def l2_distance2(a: np.ndarray, b: np.ndarray) -> float:
    """sum_x |a_x - b_x|^2."""
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch {a.shape} vs {b.shape}")
    d = a - b
    return float(np.vdot(d, d).real)


def eps_to_delta(eps: float) -> float:
    """Fidelity loss eps mapped to l2 budget: 2 - 2 sqrt(1 - eps)."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    return 2.0 - 2.0 * math.sqrt(1.0 - eps)


# ---------------------------------------------------------------------------
# restriction and local operations


def _restrict_node(node: Node, assign: dict[int, int], n: int) -> tuple[complex, Node | None]:
    """Fix some qubits to bits; scalar * eval(result) equals the slice.
    Raises InvalidTreeError for a leaf outside qubits 1..n."""

    def leaf(lf: Leaf):
        if not 1 <= lf.qubit <= n:
            raise InvalidTreeError(_OUTSIDE)
        if lf.qubit in assign:
            return (lf.beta if assign[lf.qubit] else lf.alpha), None
        return 1.0 + 0.0j, lf

    def tensor(_, kids):
        scalar = math.prod((s for s, _ in kids), start=1.0 + 0.0j)
        kept = [c for _, c in kids if c is not None]
        if not kept:
            return scalar, None
        if len(kept) == 1:
            return scalar, kept[0]
        return scalar, Tensor(tuple(kept))

    def plus(nd: Plus, kids):
        terms = [(coeff * s, c) for (coeff, _), (s, c) in zip(nd.children, kids)]
        if all(c is None for _, c in terms):
            return sum(w for w, _ in terms), None
        kept = [(w, c) for w, c in terms if c is not None and w != 0]
        if not kept:
            return 0.0j, None
        if len(kept) == 1:
            return kept[0]
        return 1.0 + 0.0j, Plus(tuple(kept))

    return _fold(node, leaf, _vertices(tensor, plus))


def _rebuild(node: Tensor | Plus, kids: list[Node]) -> Node:
    """The vertex again, over new children."""
    if isinstance(node, Tensor):
        return Tensor(tuple(kids))
    return Plus(tuple((c, ch) for (c, _), ch in zip(node.children, kids)))


def restrict(tree: StateTree, assignment: dict[int, int]) -> tuple[complex, StateTree | None]:
    """Slice the tree along a partial computational-basis assignment.

    Returns (scalar, subtree) with the surviving qubits renumbered 1..n'
    in their original order; scalar * evaluate(subtree) reproduces the
    corresponding slice of evaluate(tree).  The subtree is generally not
    normalized vertex-by-vertex.
    """
    for q, b in assignment.items():
        if not 1 <= q <= tree.n:
            raise ValueError(f"assigned qubit {q} outside 1..{tree.n}")
        if b not in (0, 1):
            raise ValueError(f"assigned value for qubit {q} must be 0 or 1")
    scalar, node = _restrict_node(tree.root, assignment, tree.n)
    if node is None:
        return scalar, None
    remaining = [q for q in range(1, tree.n + 1) if q not in assignment]
    mapping = {q: i + 1 for i, q in enumerate(remaining)}
    relabel = lambda lf: Leaf(mapping[lf.qubit], lf.alpha, lf.beta)
    return scalar, StateTree(len(remaining), _fold(node, relabel, _vertices(_rebuild)))


def normalize_node(node: Node) -> tuple[complex, Node]:
    """Rescale every vertex to a unit-norm state.

    Returns (scalar, node') with scalar * eval(node') == eval(node); the
    scalar is real positive.  Raises on an exactly-zero subtree.

    Up the fold, a leaf carries the engine's result of its rescaled self
    and a vertex carries its rescaled self over its children's carried
    values.  A + vertex folds its children's into results with _vector's
    callbacks instead of evaluating their subtrees again, so no vector is
    built that no + vertex above needs, and each is built at most once.
    """
    vertex = lambda nd, kids: _checked(nd, kids, lambda _: None)
    vertices = _vertices(vertex)

    def leaf(lf: Leaf):
        s = math.hypot(abs(lf.alpha), abs(lf.beta))
        if s == 0:
            raise InvalidTreeError("leaf with zero amplitude pair")
        out = Leaf(lf.qubit, lf.alpha / s, lf.beta / s)
        return s, out, _leaf_vector(out)

    def tensor(_, kids):
        scalar = math.prod((s for s, _, _ in kids), start=1.0 + 0.0j)
        return scalar, Tensor(tuple(c for _, c, _ in kids)), Tensor(tuple(mv for _, _, mv in kids))

    def plus(nd: Plus, kids):
        coeffs = [coeff * s for (coeff, _), (s, _, _) in zip(nd.children, kids)]
        nodes = [c for _, c, _ in kids]
        results = [_fold(carried, lambda r: r, vertices, keep=_formed) for _, _, carried in kids]
        summed = Plus(tuple(zip(coeffs, nodes)))
        r = vertex(summed, results)
        if r[1] is None:
            _vector(summed)  # a fault below: raise the first one in depth-first order
        nrm = _norm(_reordered(r, None))  # scaled where the squares overflow
        if nrm == 0.0:
            raise InvalidTreeError("plus vertex sums to the zero vector")
        scaled = [c / nrm for c in coeffs]
        return nrm, Plus(tuple(zip(scaled, nodes))), Plus(tuple(zip(scaled, results)))

    return _fold(node, leaf, _vertices(tensor, plus))[:2]


def basis_product(qubits: list[int], bits: int) -> Node:
    """|bits> as a product of classical leaves on the given qubits."""
    k = len(qubits)
    leaves = []
    for j, q in enumerate(qubits):
        b = (bits >> (k - 1 - j)) & 1
        leaves.append(Leaf(q, 0.0 if b else 1.0, 1.0 if b else 0.0))
    if k == 1:
        return leaves[0]
    return Tensor(tuple(leaves))


def local_basis_change(tree: StateTree, gates: list[np.ndarray]) -> StateTree:
    """Apply one 2x2 unitary per qubit (gates[q-1] to qubit q).

    Leaves are rewritten in place, so the size never grows.
    """
    if len(gates) != tree.n:
        raise ValueError(f"need {tree.n} gates, got {len(gates)}")
    mats = []
    for g in gates:
        g = np.asarray(g, dtype=complex)
        if g.shape != (2, 2):
            raise NonUnitaryError("per-qubit gates must be 2x2")
        if not np.allclose(g @ g.conj().T, np.eye(2), rtol=0.0, atol=TOLERANCE):
            raise NonUnitaryError("matrix is not unitary within tolerance")
        mats.append(g)

    def leaf(lf: Leaf) -> Leaf:
        if not 1 <= lf.qubit <= tree.n:
            raise InvalidTreeError(_OUTSIDE)
        g = mats[lf.qubit - 1]
        a = g[0, 0] * lf.alpha + g[0, 1] * lf.beta
        b = g[1, 0] * lf.alpha + g[1, 1] * lf.beta
        return Leaf(lf.qubit, complex(a), complex(b))

    return StateTree(tree.n, _fold(tree.root, leaf, _vertices(_rebuild)))


__all__ = [
    "Leaf", "Plus", "Tensor", "Node", "StateTree", "Violation",
    "TOLERANCE", "MAX_QUBITS",
    "basis_product", "classify_tree", "depth", "eps_to_delta", "evaluate",
    "fidelity", "l2_distance2", "local_basis_change", "mask_qubits",
    "normalize_node", "qubit_mask", "restrict", "tree_size", "validate",
]
