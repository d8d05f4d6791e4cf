"""State-tree construction, validation, evaluation and local operations."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from conftest import random_tree, random_unitary
from statetrees.builders import (build_cat, build_cluster1d, build_coset_fourier_otree,
                                 build_coset_sigma1, build_divisibility_tree,
                                 build_hamming, build_knill_tree, build_parity,
                                 build_parity_fourier)
from statetrees.dsl import parse, serialize
from statetrees.errors import InvalidTreeError, NonUnitaryError, OversizeError
from statetrees.gf2 import BitMatrix, Coset
from statetrees.rng import stream
from statetrees import trees as trees_module
from statetrees.trees import (TOLERANCE, Leaf, Plus, StateTree, Tensor, classify_tree,
                              depth, eps_to_delta, evaluate, fidelity, l2_distance2,
                              local_basis_change, normalize_node, restrict, tree_size,
                              validate)
from statetrees.trees import _fold, _rebuild, _vector, _vertices

R2 = 1 / math.sqrt(2)
H = np.array([[R2, R2], [R2, -R2]])


def test_validate_single_leaf():
    t = StateTree(1, Leaf(1, R2, R2))
    assert validate(t) == []


def test_validate_plus_qubitset_mismatch():
    t = StateTree(2, Plus(((R2, Leaf(1, 1, 0)), (R2, Leaf(2, 1, 0)))))
    rules = {v.rule for v in validate(t)}
    assert "plus-children-qubitset-mismatch" in rules


def test_validate_unnormalized_plus():
    t = StateTree(1, Plus(((1.0, Leaf(1, 1, 0)), (1.0, Leaf(1, 0, 1)))))
    rules = {v.rule for v in validate(t)}
    assert rules == {"vertex-not-normalized"}


def test_validate_tensor_overlap_and_root_coverage():
    t = StateTree(2, Tensor((Leaf(1, 1, 0), Leaf(1, 0, 1))))
    rules = {v.rule for v in validate(t)}
    assert "tensor-children-overlap" in rules
    t2 = StateTree(3, Tensor((Leaf(1, 1, 0), Leaf(2, 0, 1))))
    rules2 = {v.rule for v in validate(t2)}
    assert "root-qubitset-incomplete" in rules2


def test_validate_oversize():
    with pytest.raises(OversizeError):
        validate(StateTree(25, Leaf(1, 1, 0)))


def test_evaluate_leaf():
    v = evaluate(StateTree(1, Leaf(1, 0.6, 0.8)))
    assert np.allclose(v, [0.6, 0.8])


def test_evaluate_interleaved_tensor():
    # child on {1,3} tensor child on {2}: axes must be reordered
    inner = Plus(((R2, Tensor((Leaf(1, 1, 0), Leaf(3, 1, 0)))),
                  (R2, Tensor((Leaf(1, 0, 1), Leaf(3, 0, 1))))))
    t = StateTree(3, Tensor((inner, Leaf(2, 0, 1))))
    v = evaluate(t)
    expect = np.zeros(8, dtype=complex)
    expect[0b010] = R2
    expect[0b111] = R2
    assert np.allclose(v, expect)


def test_tree_size_and_depth():
    assert tree_size(StateTree(1, Leaf(1, 1, 0))) == 1
    assert depth(StateTree(1, Leaf(1, 1, 0))) == 0
    for n in (2, 3, 6):
        assert tree_size(build_cat(n)) == 2 * n


def test_classify_examples():
    assert classify_tree(build_cat(4)) == "manifestly-orthogonal"
    assert classify_tree(build_parity_fourier(4, 0)) == "orthogonal"
    t = StateTree(1, Plus(((R2, Leaf(1, 1, 0)), (R2, Leaf(1, 1, 0)))))
    # two identical children: inner product 1
    assert classify_tree(t) == "general"


def ref_classify(tree: StateTree, tol: float) -> str:
    """classify_tree read off each + vertex's children's amplitudes, found
    by recursion: as (basis indices over the subtree's qubits, ascending;
    amplitudes), with no shared code but the node classes."""
    seen: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    manifest = orthogonal = True

    def amps(node):
        nonlocal manifest, orthogonal
        if id(node) in seen:
            return seen[id(node)]
        if isinstance(node, Leaf):
            out = np.array([0, 1 << (node.qubit - 1)]), np.array([node.alpha, node.beta], dtype=complex)
        elif isinstance(node, Tensor):
            keys, vals = np.zeros(1, dtype=np.int64), np.ones(1, dtype=complex)
            for kid in node.children:
                k, v = amps(kid)
                keys, vals = (keys[:, None] | k).ravel(), np.multiply.outer(vals, v).ravel()
            order = np.argsort(keys)
            out = keys[order], vals[order]
        else:
            kids = [amps(kid)[1] for _, kid in node.children]
            if len(kids) > 1:
                if np.any(sum(np.abs(v) > tol for v in kids) > 1):  # a basis index held twice
                    manifest = False
                if any(abs(np.vdot(kids[i], kids[j])) > tol
                       for i in range(len(kids)) for j in range(i)):
                    orthogonal = False
            out = amps(node.children[0][1])[0], sum(c * v for (c, _), v in zip(node.children, kids))
        seen[id(node)] = out
        return out

    amps(tree.root)
    return "general" if not orthogonal else "orthogonal" if not manifest else "manifestly-orthogonal"


def _classify_corpus() -> list[StateTree]:
    """Every builder family at n <= 10 and seeded random trees."""
    rng = stream(5)
    out = [build_knill_tree()]
    for n in range(1, 11):
        out += [build_cat(n), build_parity(n, 0), build_parity(n, 1), build_parity_fourier(n, 0),
                build_parity_fourier(n, 1)]
        out += [build_hamming(n, k) for k in sorted({0, n // 2, n})]
        if n > 1:
            out.append(build_cluster1d(n))
        if n > 2:
            out.append(build_divisibility_tree(n, 3))
        for k in sorted({1, n // 2, n - 1} - {0}):
            coset = Coset(BitMatrix(k, n, tuple(int(x) for x in rng.integers(0, 1 << n, size=k))), 0)
            out += [build_coset_sigma1(coset), build_coset_fourier_otree(coset)]
    return out + [random_tree(41, 1 + t % 8, t) for t in range(40)]


def _wide_disjoint_trees() -> list[StateTree]:
    """Coset-sigma1 trees, whose root's many children have exactly disjoint
    supports, and the parsed cluster1d(12), whose wide + vertices have too,
    except the root's."""
    rng = stream(6)
    cosets = [Coset(BitMatrix(k, 12, tuple(int(x) for x in rng.integers(0, 1 << 12, size=k))), 0)
              for k in (4, 6, 8)]
    return [build_coset_sigma1(c) for c in cosets] + [parse(serialize(build_cluster1d(12)))]


def test_classify_matches_the_recursive_reference(monkeypatch):
    trees = _classify_corpus() + _wide_disjoint_trees()
    labels = {}
    for tol in (TOLERANCE, 0.1, 0.0, -1e-9, math.nan):
        labels[tol] = got = [classify_tree(t, tol=tol) for t in trees]
        want = [ref_classify(t, tol) for t in trees]
        if tol == 0.0:
            # at tol 0 an inner product that is exactly 0 is read off rounding: the
            # gram's zgemm can leave 1e-17 where the reference's vdot leaves 0, on
            # these trees and no others; every + vertex through the gram agrees
            off = [i for i, (w, g) in enumerate(zip(want, got)) if w != g]
            assert {(want[i], got[i]) for i in off} == {("orthogonal", "general")}
            assert len(off) == 17
            with monkeypatch.context() as m:
                m.setattr(trees_module, "_disjoint", lambda vs: False)
                assert got == [classify_tree(t, tol=tol) for t in trees]
            want = got
        assert got == want, tol
    assert labels[TOLERANCE][-4:] == ["manifestly-orthogonal"] * 3 + ["general"]
    for tol in (TOLERANCE, 0.1):
        assert len(set(labels[tol])) == 3, tol
    # the looser tolerance changes some labels, and the reference agrees on them too
    assert sum(a != b for a, b in zip(labels[TOLERANCE], labels[0.1])) >= 10
    # below 0 every + vertex of two or more children overlaps and is not orthogonal;
    # NaN passes no test
    assert set(labels[-1e-9]) == {"manifestly-orthogonal", "general"}
    assert set(labels[math.nan]) == {"manifestly-orthogonal"}


def test_classify_reads_disjoint_supports_without_the_gram(monkeypatch):
    def refuse(vs, tol):
        raise AssertionError(f"gram of {len(vs)} x {len(vs[0])} built")

    monkeypatch.setattr(trees_module, "_gram_labels", refuse)
    rng = stream(8)
    coset = Coset(BitMatrix(8, 16, tuple(int(x) for x in rng.integers(0, 1 << 16, size=8))), 0)
    for tree in (build_coset_sigma1(coset), build_parity(14, 0)):
        assert classify_tree(tree) == "manifestly-orthogonal"


def test_a_wide_plus_vertex_holds_one_vector_not_its_children():
    # 256 product children of 1 MiB each: a + vertex adds each one into its
    # sum a block at a time, so the peak stays a few MiB above the result
    rng = stream(8)
    coset = Coset(BitMatrix(8, 16, tuple(int(x) for x in rng.integers(0, 1 << 16, size=8))), 0)
    tree = build_coset_sigma1(coset)
    assert len(tree.root.children) == 256
    for fn in (evaluate, validate):
        tracemalloc.start()
        try:
            fn(tree)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20, (fn.__name__, peak)


def test_a_norm_near_the_limit_is_read_again_in_sorted_order():
    # a child's norm^2 summed block by block in its own axis order decides
    # against _ROOM only outside 2^-30 of it; within, or at NaN, the child's
    # vector is read again (here its true norm^2 is _ROOM / 2)
    room = float(trees_module._ROOM)
    child = (0b11, np.array([math.sqrt(room / 2), 0, 0, 0], dtype=complex), None)
    below = trees_module._below_room
    assert below(room, child) and below(math.nan, child)
    assert below(room * (1 - 2**-29), child)
    assert not below(room * (1 + 2**-29), child) and not below(math.inf, child)


def test_fidelity_and_l2():
    rng = stream(2)
    for _ in range(20):
        a = rng.normal(size=8) + 1j * rng.normal(size=8)
        a /= np.linalg.norm(a)
        b = rng.normal(size=8) + 1j * rng.normal(size=8)
        b /= np.linalg.norm(b)
        assert fidelity(a, a) == pytest.approx(1.0, abs=1e-12)
        direct = sum(abs(x - y) ** 2 for x, y in zip(a, b))
        assert l2_distance2(a, b) == pytest.approx(direct, abs=1e-12)
        assert l2_distance2(a, b) == pytest.approx(2 - 2 * np.vdot(a, b).real, abs=1e-12)
    with pytest.raises(ValueError):
        fidelity(np.zeros(4), np.zeros(8))


def test_eps_to_delta():
    assert eps_to_delta(0.0) == 0.0
    assert eps_to_delta(1.0) == pytest.approx(2.0)
    xs = np.linspace(0, 1, 50)
    ys = [eps_to_delta(float(x)) for x in xs]
    assert all(y2 >= y1 for y1, y2 in zip(ys, ys[1:]))
    with pytest.raises(ValueError):
        eps_to_delta(1.5)


def test_restrict_leaf_scalar():
    s, rest = restrict(StateTree(1, Leaf(1, 0.6, 0.8)), {1: 1})
    assert rest is None
    assert s == pytest.approx(0.8)


def test_restrict_cat():
    s, rest = restrict(build_cat(5), {1: 0})
    v = s * evaluate(rest)
    expect = np.zeros(16, dtype=complex)
    expect[0] = R2
    assert np.allclose(v, expect)


def test_restrict_cluster2_fixture():
    from statetrees.dsl import parse
    from pathlib import Path
    import statetrees
    text = (Path(statetrees.__file__).parent / "fixtures" / "cluster2.tree").read_text()
    t = parse(text)
    s, rest = restrict(t, {1: 0})
    assert np.allclose(s * evaluate(rest), [0.5, 0.5])
    s, rest = restrict(t, {1: 1})
    assert np.allclose(s * evaluate(rest), [0.5, -0.5])


def test_local_basis_change_identity_is_noop():
    t = build_cat(4)
    out = local_basis_change(t, [np.eye(2)] * 4)
    assert out == t


def test_restrict_random_slices():
    rng = stream(7)
    for trial in range(40):
        n = int(rng.integers(1, 9))
        t = random_tree(700, n, trial)
        assert validate(t) == []
        v = evaluate(t)
        k = int(rng.integers(1, min(3, n) + 1))
        qs = sorted(int(q) for q in rng.permutation(n)[:k] + 1)
        for y in range(1 << k):
            assign = {q: (y >> (k - 1 - i)) & 1 for i, q in enumerate(qs)}
            s, rest = restrict(t, assign)
            remaining = [q for q in range(1, n + 1) if q not in assign]
            expect = np.zeros(1 << len(remaining), dtype=complex)
            for x in range(1 << n):
                bits = [(x >> (n - 1 - i)) & 1 for i in range(n)]
                if all(bits[q - 1] == b for q, b in assign.items()):
                    ri = sum(bits[q - 1] << (len(remaining) - 1 - i) for i, q in enumerate(remaining))
                    expect[ri] = v[x]
            if rest is None:
                assert len(remaining) == 0
                assert s == pytest.approx(complex(expect[0]), abs=1e-10)
            else:
                assert tree_size(rest) <= tree_size(t)
                got = s * evaluate(rest)
                assert np.allclose(got, expect, atol=1e-10)


# a 2-qubit tree with a leaf on qubit 3
OUTSIDE_LEAF = StateTree(2, Tensor((Leaf(1, 1, 0), Leaf(3, 0, 1))))


def test_restrict_refuses_a_leaf_outside_the_qubits():
    with pytest.raises(InvalidTreeError, match=r"^tree uses qubits outside 1\.\.n$"):
        restrict(OUTSIDE_LEAF, {1: 0})


def test_local_basis_change_refuses_a_leaf_outside_the_qubits():
    # qubit 0 would index the last qubit's gate
    t = StateTree(2, Tensor((Leaf(0, 1, 0), Leaf(2, 1, 0))))
    x = np.array([[0, 1], [1, 0]])
    with pytest.raises(InvalidTreeError, match=r"^tree uses qubits outside 1\.\.n$"):
        local_basis_change(t, [np.eye(2), x])


def test_local_basis_change_hadamard_cat_gives_even_parity():
    n = 6
    out = local_basis_change(build_cat(n), [H] * n)
    assert tree_size(out) <= 2 * tree_size(build_cat(n))
    assert validate(out) == []
    v = evaluate(out)
    expect = np.zeros(1 << n, dtype=complex)
    for x in range(1 << n):
        if bin(x).count("1") % 2 == 0:
            expect[x] = 1 / math.sqrt(1 << (n - 1))
    assert fidelity(v, expect) > 1 - 1e-12


def test_local_basis_change_random_vs_dense():
    rng = stream(33)
    t = build_parity(6, 0)
    gates = [random_unitary(rng, 2) for _ in range(6)]
    out = local_basis_change(t, gates)
    assert validate(out) == []
    op = gates[0]
    for g in gates[1:]:
        op = np.kron(op, g)
    assert fidelity(evaluate(out), op @ evaluate(t)) > 1 - 1e-9
    with pytest.raises(NonUnitaryError, match="^matrix is not unitary within tolerance$"):
        local_basis_change(t, [np.eye(2)] * 5 + [np.ones((2, 2))])
    with pytest.raises(NonUnitaryError, match="^per-qubit gates must be 2x2$"):
        local_basis_change(t, [np.eye(2)] * 5 + [np.eye(3)])


def test_norm_and_size_invariants_on_random_trees():
    for trial in range(25):
        n = 1 + trial % 7
        t = random_tree(910, n, trial)
        assert validate(t) == []
        v = evaluate(t)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-9)
        assert tree_size(t) >= n


def _kron_reference(node):
    """(qubits in sorted order, vector), tensor products taken with np.kron."""
    if isinstance(node, Leaf):
        return [node.qubit], np.array([node.alpha, node.beta], dtype=complex)
    if isinstance(node, Tensor):
        qubits, out = [], np.ones(1, dtype=complex)
        for ch in node.children:
            q, v = _kron_reference(ch)
            qubits += q
            out = np.kron(out, v)
        perm = [qubits.index(q) for q in sorted(qubits)]
        return sorted(qubits), out.reshape([2] * len(qubits)).transpose(perm).reshape(-1)
    results = [_kron_reference(ch) for _, ch in node.children]
    acc = np.zeros_like(results[0][1])
    for (coeff, _), (_, v) in zip(node.children, results):
        acc = acc + coeff * v
    return results[0][0], acc


def test_evaluate_is_bitwise_the_kron_product():
    for trial in range(25):
        t = random_tree(911, 1 + trial % 8, trial)
        assert evaluate(t).tobytes() == _kron_reference(t.root)[1].tobytes()


def _relabelled(tree: StateTree, perm: list[int]) -> StateTree:
    """The tree with every leaf on qubit q moved to qubit perm[q - 1]."""
    leaf = lambda lf: Leaf(perm[lf.qubit - 1], lf.alpha, lf.beta)
    return StateTree(tree.n, _fold(tree.root, leaf, _vertices(_rebuild)))


def test_evaluate_is_bitwise_the_kron_product_on_interleaved_qubits():
    rng = stream(914)
    cases = [random_tree(915, 2 + trial % 7, trial) for trial in range(25)]
    cases += [build_cluster1d(8), build_parity(7, 1), build_hamming(6, 3)]
    relabelled = [_relabelled(t, [int(q) + 1 for q in rng.permutation(t.n)]) for t in cases]
    # a + vertex whose children arrive in different axis orders: products of
    # interleaved factors in both orders, a + vertex over one, three leaves
    # in descending order (with signed zeros), and a leaf times a + vertex
    # whose children's orders differ too
    a, b = Tensor((Leaf(1, 0.6, 0.8), Leaf(3, 0.8, -0.6))), Leaf(2, 0.28, 0.96j)
    swapped = Tensor((Leaf(3, 0.8, -0.6), Leaf(1, 0.6, 0.8)))
    mixed = Plus(((0.5, Tensor((a, b))),
                  (0.5j, Plus(((1.0, Tensor((b, a))),))),
                  (-0.5, Tensor((Leaf(3, -0.0, 1.0), Leaf(2, 1.0, -0.0), Leaf(1, 0.6, -0.8)))),
                  (0.5, Tensor((b, Plus(((0.6, a), (0.8j, swapped))))))))
    for t in relabelled + [StateTree(3, mixed)]:
        assert evaluate(t).tobytes() == _kron_reference(t.root)[1].tobytes()


def test_evaluate_rejects_structural_garbage():
    bad = StateTree(2, Plus(((1.0, Leaf(1, 1, 0)), (1.0, Leaf(2, 1, 0)))))
    with pytest.raises(InvalidTreeError):
        evaluate(bad)


VALIDATE_CASES = [
    (StateTree(2, Tensor((Leaf(1, 1, 0), Leaf(3, 1, 0)))),
     [((1,), "leaf-qubit-range", "qubit 3"), ((), "root-qubitset-incomplete", "covers [1], n=2")]),
    (StateTree(1, Leaf(0, 1, 0)),
     [((), "leaf-qubit-range", "qubit 0"), ((), "root-qubitset-incomplete", "covers [], n=1")]),
    (StateTree(1, Plus(((1.0, Leaf(1, 1, 0)), (1.0, Tensor(()))))),
     [((1,), "empty-children", "tensor with 0 children"),
      ((), "plus-children-qubitset-mismatch", "child 1")]),
    (StateTree(2, Tensor((Leaf(1, 1, 0), Plus(())))),
     [((1,), "empty-children", "plus with 0 children"),
      ((), "root-qubitset-incomplete", "covers [1], n=2")]),
    # an overlap is reported right after the overlapping child's subtree
    (StateTree(3, Tensor((Leaf(1, 1, 0), Leaf(1, 0, 1), Plus(((2.0, Leaf(2, 1, 0)),)),
                          Leaf(3, 1, 1)))),
     [((), "tensor-children-overlap", "child 1"), ((2,), "vertex-not-normalized", "norm 2.0"),
      ((3,), "vertex-not-normalized", "norm 1.4142135623730951")]),
    # a qubit-set mismatch after all the children's subtrees
    (StateTree(2, Plus(((R2, Leaf(1, 1, 0)), (R2, Leaf(2, 1, 0)), (1.0, Leaf(1, 3, 0))))),
     [((2,), "vertex-not-normalized", "norm 3.0"), ((), "plus-children-qubitset-mismatch", "child 1")]),
    (StateTree(3, Plus(((R2, Tensor((Leaf(1, 1, 0), Plus(((1.0, Leaf(2, 2, 0)),)), Leaf(3, 1, 0)))),
                        (R2, Tensor((Leaf(1, 0, 1), Leaf(2, 0, 1), Leaf(3, 0, 1))))))),
     [((0, 1, 0), "vertex-not-normalized", "norm 2.0"), ((0, 1), "vertex-not-normalized", "norm 2.0"),
      ((), "vertex-not-normalized", "norm 1.5811388300841895")]),
    (StateTree(3, Tensor((Leaf(1, 1, 0), Leaf(2, 0, 1)))),
     [((), "root-qubitset-incomplete", "covers [1, 2], n=3")]),
]


@pytest.mark.parametrize("tree, want", VALIDATE_CASES)
def test_validate_pins_path_and_measured(tree, want):
    assert [(v.path, v.rule, v.measured) for v in validate(tree)] == want


@pytest.mark.parametrize("tree", [tree for tree, _ in VALIDATE_CASES])
def test_classify_raises_what_evaluate_raises(tree):
    def raised(fn):
        try:
            fn(tree)
        except (InvalidTreeError, ValueError) as e:
            return type(e), str(e)
        return None

    assert raised(classify_tree) == raised(evaluate)


@pytest.mark.parametrize("root, message", [
    (Plus(((1, Leaf(1, 1, 0)), (1, Leaf(2, 1, 0)), (1, Tensor((Leaf(1, 1, 0), Leaf(1, 1, 0)))))),
     "plus children cover different qubit sets"),
    (Tensor((Leaf(1, 1, 0), Leaf(1, 1, 0), Plus(((1, Leaf(2, 1, 0)), (1, Leaf(3, 1, 0)))))),
     "tensor children overlap on qubits"),
    (Tensor((Plus(((1, Leaf(1, 1, 0)), (1, Leaf(2, 1, 0)))), Leaf(1, 1, 0))),
     "plus children cover different qubit sets"),
    (Plus(((1, Tensor(())), (1, Leaf(1, 1, 0)))), "tensor vertex with no children"),
    # a leaf outside 1..n is a fault at the leaf, in the same order
    (Tensor((Leaf(1, 1, 0), Leaf(1, 1, 0), Leaf(5, 1, 0))), "tensor children overlap on qubits"),
    (Tensor((Leaf(5, 1, 0), Leaf(1, 1, 0), Leaf(1, 1, 0))), "tree uses qubits outside 1..n"),
    (Plus(((1, Leaf(0, 1, 0)), (1, Leaf(1, 1, 0)))), "tree uses qubits outside 1..n"),
])
def test_evaluate_reports_first_fault_in_depth_first_order(root, message):
    for fn in (evaluate, classify_tree):
        with pytest.raises(InvalidTreeError) as err:
            fn(StateTree(4, root))
        assert str(err.value) == message


def ref_normalize_node(node):
    """normalize_node as it was before it carried vectors up the fold: each
    + vertex evaluates its whole rescaled subtree again."""

    def leaf(lf):
        s = math.hypot(abs(lf.alpha), abs(lf.beta))
        if s == 0:
            raise InvalidTreeError("leaf with zero amplitude pair")
        return s, Leaf(lf.qubit, lf.alpha / s, lf.beta / s)

    def tensor(_, kids):
        return math.prod((s for s, _ in kids), start=1.0 + 0.0j), Tensor(tuple(c for _, c in kids))

    def plus(nd, kids):
        coeffs = [coeff * s for (coeff, _), (s, _) in zip(nd.children, kids)]
        nodes = [c for _, c in kids]
        _, v = _vector(Plus(tuple(zip(coeffs, nodes))))
        nrm = float(np.linalg.norm(v))
        if nrm == 0.0:
            raise InvalidTreeError("plus vertex sums to the zero vector")
        return nrm, Plus(tuple((c / nrm, ch) for c, ch in zip(coeffs, nodes)))

    return _fold(node, leaf, _vertices(tensor, plus))


def _scaled(node, rng):
    """The tree with every leaf and + coefficient times a random factor."""
    factor = lambda: complex(rng.uniform(0.2, 3.0), rng.uniform(-1.0, 1.0))

    def leaf(lf):
        f = factor()
        return Leaf(lf.qubit, f * lf.alpha, f * lf.beta)

    def plus(nd, kids):
        return Plus(tuple((factor() * c, ch) for (c, _), ch in zip(nd.children, kids)))

    return _fold(node, leaf, _vertices(_rebuild, plus))


def _normalized(fn, node):
    try:
        return fn(node)
    except InvalidTreeError as e:
        return str(e)


@pytest.mark.parametrize("root", [
    Plus(((1.0, Leaf(1, 0, 0)),)),
    Plus(((1.0, Leaf(1, 1, 0)), (-1.0, Leaf(1, 1, 0)))),
    Plus(((1.0, Tensor((Leaf(1, 1, 0), Leaf(1, 0, 1)))),)),
    Plus(((1.0, Tensor((Plus(()), Leaf(2, 1, 0)))),)),
    Tensor((Leaf(1, 1, 0), Plus(((1.0, Tensor(())), (2.0, Leaf(1, 1, 0)))))),
    Plus(((1.0, Tensor((Leaf(1, 1, 0), Leaf(1, 0, 1)))), (1.0, Tensor((Leaf(2, 1, 0), Leaf(3, 1, 0)))))),
    # faults in both children and between them: the first in depth-first order is raised
    Plus(((1.0, Tensor((Leaf(2, 1, 0), Leaf(2, 0, 1)))), (1.0, Tensor((Leaf(1, 1, 0), Tensor(())))))),
    Tensor((Leaf(1, 2, 0), Leaf(1, 0, 3))),  # no + vertex above the overlap: not checked
])
def test_normalize_node_errors_match_reference(root):
    assert _normalized(normalize_node, root) == _normalized(ref_normalize_node, root)


def test_normalize_node_is_bitwise_the_reference():
    rng = stream(912)
    trees = [random_tree(913, 1 + trial % 8, trial).root for trial in range(100)]
    trees += [t.root for t in (build_cat(5), build_parity(6, 1), build_parity_fourier(5, 0),
                               build_cluster1d(8), build_knill_tree(), build_hamming(6, 3),
                               build_divisibility_tree(6, 5))]
    for root in trees + [_scaled(root, rng) for root in trees]:
        scalar, node = normalize_node(root)
        want_scalar, want_node = ref_normalize_node(root)
        assert scalar == want_scalar
        assert node == want_node
