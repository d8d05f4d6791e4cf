"""Shared subtrees: dsl.parse makes equal subtree text one object, and
every fold (trees._fold, for trees and formulas alike) visits each
distinct vertex once.

The reference for every result is the same tree or formula with no
sharing, copied vertex by vertex on this module's own explicit stack.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from conftest import random_tree
from statetrees import trees
from statetrees.builders import (build_cat, build_cluster1d, build_coset_fourier_otree,
                                 build_coset_sigma1, build_divisibility_tree, build_hamming,
                                 build_knill_tree, build_parity, build_parity_fourier)
from statetrees.circuits import compile_tree, format_circuit
from statetrees.dsl import parse, serialize
from statetrees.errors import StateTreesError
from statetrees.formulas import (Add, Const, Mul, Var, balance, build_threshold_formula,
                                 expand_polynomial, formula_size, formula_truth_values,
                                 serialize_formula, tree_to_formula)
from statetrees.gf2 import BitMatrix, Coset
from statetrees.trees import (Leaf, Plus, StateTree, Tensor, _fold, _rebuild, _vertices,
                              classify_tree, depth, evaluate, local_basis_change, mask_qubits,
                              normalize_node, qubit_mask, restrict, tree_size, validate)



def _shared(node) -> dict[int, int]:
    """id -> parent edges of each vertex with more than one."""
    return trees._shared(node, _vertices(None))


def _copy(root, operands, rebuild):
    """root with a new object at every path: a post-order copy on an
    explicit stack, rebuild(vertex, copied children) making each vertex;
    a vertex with no operands (None) is copied by rebuild(vertex, None)."""
    done: list = []  # copies of the finished vertices, in post order
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        kids = operands(node)
        if kids is None:
            done.append(rebuild(node, None))
        elif not expanded:
            stack.append((node, True))
            stack += [(ch, False) for ch in reversed(kids)]
        else:
            cut = len(done) - len(kids)
            copied = done[cut:]
            del done[cut:]
            done.append(rebuild(node, copied))
    return done[0]


def _unshared(tree: StateTree) -> StateTree:
    """The tree with a new object at every path."""
    def operands(node):
        if isinstance(node, Leaf):
            return None
        return node.children if isinstance(node, Tensor) else [ch for _, ch in node.children]

    def rebuild(node, kids):
        if kids is None:
            return Leaf(node.qubit, node.alpha, node.beta)
        if isinstance(node, Tensor):
            return Tensor(tuple(kids))
        return Plus(tuple((c, ch) for (c, _), ch in zip(node.children, kids)))

    return StateTree(tree.n, _copy(tree.root, operands, rebuild))


def _unshared_formula(f):
    """The formula with a new object at every path."""
    operands = lambda g: (g.left, g.right) if isinstance(g, (Add, Mul)) else None
    def rebuild(g, kids):
        if kids:
            return type(g)(*kids)
        return Var(g.index) if isinstance(g, Var) else Const(g.value)
    return _copy(f, operands, rebuild)


def _outcome(run, tree):
    try:
        return "ok", run(tree)
    except (StateTreesError, ValueError) as e:
        return type(e).__name__, str(e)


def _texts(mapped):
    """serialize of the tree or node in a (scalar, tree or node or None) pair."""
    scalar, node = mapped
    return scalar, None if node is None else serialize(node)


def _folds(n: int) -> dict:
    """Every tree fold, as a function of a tree whose results compare with ==."""
    rot = lambda t: np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    gates = [rot(0.3 * q) * np.exp(0.1j * q) for q in range(1, n + 1)]
    return {
        "validate": validate,
        "classify": classify_tree,
        "serialize": serialize,
        "tree_size": tree_size,
        "depth": depth,
        "qubit_mask": lambda t: qubit_mask(t.root),
        "restrict": lambda t: _texts(restrict(t, {1: 1, n: 0} if n > 1 else {1: 0})),
        "normalize_node": lambda t: _texts(normalize_node(t.root)),
        "local_basis_change": lambda t: serialize(local_basis_change(t, gates)),
        "tree_to_formula": lambda t: serialize_formula(tree_to_formula(t)),
        "compile": lambda t: format_circuit(compile_tree(t)),
    }


def _assert_same_results(tree: StateTree) -> None:
    plain = _unshared(tree)
    if isinstance(plain.root, (Tensor, Plus)):
        assert not _shared(plain.root)
    for name, run in _folds(tree.n).items():
        assert _outcome(run, tree) == _outcome(run, plain), name
    got, want = _outcome(evaluate, tree), _outcome(evaluate, plain)
    assert got[0] == want[0]
    if got[0] == "ok":
        assert np.array_equal(got[1], want[1])  # the same arithmetic in the same order
    else:
        assert got == want


def _parsed_families() -> list[StateTree]:
    """Every builder family at small n and seeded random trees, through text."""
    coset = Coset(BitMatrix(2, 5, (0b10110, 0b01011)), 0b01)
    out = [build_knill_tree(), build_coset_sigma1(coset), build_coset_fourier_otree(coset)]
    for n in range(2, 9):
        out += [build_cat(n), build_parity(n, n % 2), build_parity_fourier(n, 1),
                build_cluster1d(n), build_hamming(n, n // 2)]
        if n > 2:
            out.append(build_divisibility_tree(n, 3))
    out += [random_tree(31, n, n) for n in range(2, 8)]
    return [parse(serialize(t)) for t in out]


def _with_shared_vertices(trees: list[StateTree]) -> list[StateTree]:
    return [t for t in trees if isinstance(t.root, (Tensor, Plus)) and _shared(t.root)]


def test_parse_returns_one_object_for_equal_subtree_text():
    tree = parse("(+ (0.6 (* (leaf 1 1 0) (leaf 2 0 1)))"
                 "   (0.8 (* (leaf 1 1 0) (leaf 2 0 1))))")
    (_, a), (_, b) = tree.root.children
    assert a is b
    # only a qubit differs: two objects, though the equal leaves below are one
    tree = parse("(* (+ (0.6 (* (leaf 1 1 0) (leaf 2 0 1))) (0.8 (* (leaf 1 0 1) (leaf 2 0 1))))"
                 "   (+ (0.6 (* (leaf 1 1 0) (leaf 3 0 1))) (0.8 (* (leaf 1 0 1) (leaf 3 0 1)))))")
    a, b = tree.root.children
    assert a is not b and a != b
    assert a.children[0][1].children[0] is b.children[0][1].children[0]
    # only a coefficient's text differs, not its value: two objects, equal
    tree = parse("(+ (0.5 (+ (0.6 (leaf 1 1 0)) (0.8 (leaf 1 0 1))))"
                 "   (0.5 (+ (0.6 (leaf 1 1 0)) (0.80 (leaf 1 0 1)))))")
    (_, a), (_, b) = tree.root.children
    assert a is not b and a == b
    assert a.children[1][1] is b.children[1][1]


def test_shared_parse_gives_the_unshared_results_for_every_family():
    cases = _parsed_families()
    assert len(_with_shared_vertices(cases)) >= 12
    for tree in cases:
        _assert_same_results(tree)


def _plant(tree: StateTree, key: int, fault: str) -> StateTree:
    """The tree with a fault planted at every copy of the shared vertex
    whose id is `key`, reparsed so that the faulty copies are shared too."""
    def vertex(nd, kids):
        out = _rebuild(nd, kids)
        if id(nd) != key:
            return out
        q = mask_qubits(qubit_mask(nd))[0]
        return {
            "not-normalized": Plus(((1.5, out),)),
            "overlap": Tensor((out, Leaf(q, 1, 0))),
            "mismatch": Plus(((0.6, out), (0.8, Leaf(q, 1, 0)))),
            "out-of-range": Tensor((out, Leaf(tree.n + 1, 0.6, 0.8))),
        }[fault]
    return parse(serialize(_fold(tree.root, lambda lf: lf, _vertices(vertex))), tree.n)


@pytest.mark.parametrize("fault", ["not-normalized", "overlap", "mismatch", "out-of-range"])
def test_faults_in_a_shared_subtree_are_found_at_every_path(fault):
    planted = [_plant(t, key, fault) for t in _with_shared_vertices(_parsed_families())
               for key in list(_shared(t.root))[::4]]
    assert len(planted) >= 40
    for tree in planted:
        assert _shared(tree.root)
        _assert_same_results(tree)
    # a fault below a shared vertex is reported once per copy, with the copy's path
    tree = parse(serialize(build_cluster1d(5)))
    shared = _shared(tree.root)
    key = max(shared, key=shared.get)
    found = validate(_plant(tree, key, fault))
    paths = {v.path for v in found if v.rule != "root-qubitset-incomplete"}
    assert len(paths) >= shared[key] >= 3


def test_evaluate_keeps_no_more_memory_than_the_unshared_tree():
    # results are dropped once their last parent edge has read them: the
    # peak (about 15 MB, at the top + vertices) may exceed the unshared
    # walk's only by the memo's own tables, a few entries per shared
    # vertex, not by kept vectors (never dropping them adds about 115 kB)
    tree = parse(serialize(build_cluster1d(16)))
    plain = _unshared(tree)
    peaks = []
    for t in (tree, plain):
        tracemalloc.start()
        try:
            v = evaluate(t)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert np.array_equal(v, evaluate(tree))
    assert peaks[0] <= peaks[1] + 256 * len(_shared(tree.root)), peaks


def test_every_parent_of_a_shared_vertex_reads_what_keep_made_of_it():
    # the vector engine keeps a shared product multiplied out this way, so
    # its parents do not each multiply it again
    pair = Tensor((Leaf(1, 1.0, 0.0), Leaf(2, 0.0, 1.0)))
    root = Plus(((0.6, pair), (0.8, Tensor((Leaf(1, 1.0, 0.0), Leaf(2, 0.0, 1.0)))), (1.0, pair)))
    made = []

    def keep(result):
        made.append(result)
        return ("kept", result)

    got = _fold(root, lambda lf: lf.qubit, _vertices(lambda _, ks: tuple(ks)), keep=keep)
    assert made == [(1, 2)]
    assert got == (("kept", (1, 2)), (1, 2), ("kept", (1, 2)))


def test_deep_shared_chain_parses_and_evaluates():
    # two copies of a depth-3000 chain of + vertices: the second copy is the
    # first object, found by child identity without hashing the subtree
    amps = [(0.6, 0.8), (0.8, -0.6), (1.0, 0.0)]
    bottom = "(* " + " ".join(f"(leaf {q} {a} {b})" for q, (a, b) in enumerate(amps, 1)) + ")"
    chain = "(+ (1 " * 3000 + bottom + "))" * 3000
    tree = parse(f"(+ (0.6 {chain}) (0.8 {chain}))")
    (_, a), (_, b) = tree.root.children
    assert a is b
    want = 1.4 * np.kron(np.kron([0.6, 0.8], [0.8, -0.6]), [1.0, 0.0])
    assert np.allclose(evaluate(tree), want, atol=1e-12)
    assert [v.rule for v in validate(tree)] == ["vertex-not-normalized"]
    assert classify_tree(tree) == "general"
    assert math.isclose(np.linalg.norm(evaluate(tree)), 1.4)
    _assert_same_results(tree)


def test_shared_formula_gives_the_unshared_results():
    f = build_threshold_formula(12, 6)
    plain = _unshared_formula(f)
    assert formula_size(f) == formula_size(plain) == 802
    assert np.array_equal(formula_truth_values(f, 12), formula_truth_values(plain, 12))
    assert expand_polynomial(f) == expand_polynomial(plain)
    assert serialize_formula(f) == serialize_formula(plain)
    assert serialize_formula(balance(f)) == serialize_formula(balance(plain))


def test_formula_truth_values_drop_each_table_after_its_last_read():
    # 5388 leaves of 12 variables: one 64 KiB table each, about 675 MiB if
    # every vertex's table were kept until the fold returns
    f = tree_to_formula(build_cluster1d(12))
    tracemalloc.start()
    try:
        values = formula_truth_values(f, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.allclose(values, evaluate(build_cluster1d(12)), atol=1e-12)
    assert peak < 16 * 2**20, peak
