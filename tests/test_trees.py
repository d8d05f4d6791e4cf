"""State-tree construction, validation, evaluation and local operations."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import random_tree, random_unitary
from statetrees.builders import build_cat, build_parity, build_parity_fourier
from statetrees.errors import InvalidTreeError, NonUnitaryError, OversizeError
from statetrees.rng import stream
from statetrees.trees import (Leaf, Plus, StateTree, Tensor, amplitude_index,
                              apply_local_unitary, classify_tree, depth,
                              eps_to_delta, evaluate, fidelity, l2_distance2,
                              local_basis_change, restrict, tree_size, validate)

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
    expect[amplitude_index([0, 1, 0])] = R2
    expect[amplitude_index([1, 1, 1])] = R2
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
                    ri = amplitude_index(bits[q - 1] for q in remaining)
                    expect[ri] = v[x]
            if rest is None:
                assert len(remaining) == 0
                assert s == pytest.approx(complex(expect[0]), abs=1e-10)
            else:
                assert tree_size(rest) <= tree_size(t)
                got = s * evaluate(rest)
                assert np.allclose(got, expect, atol=1e-10)


def test_apply_local_unitary_identity_and_hadamard():
    t = build_cat(3)
    out = apply_local_unitary(t, np.eye(2), [2])
    assert fidelity(evaluate(out), evaluate(t)) == pytest.approx(1.0, abs=1e-12)
    out = apply_local_unitary(StateTree(1, Leaf(1, 1, 0)), H, [1])
    assert np.allclose(evaluate(out), [R2, R2])


def test_apply_local_unitary_random_vs_dense():
    rng = stream(31)
    for trial in range(20):
        n = int(rng.integers(2, 6))
        t = random_tree(310, n, trial)
        k = int(rng.integers(1, 3))
        qs = sorted(int(q) for q in rng.permutation(n)[:k] + 1)
        u = random_unitary(rng, 1 << k)
        out = apply_local_unitary(t, u, qs)
        assert validate(out) == []
        assert tree_size(out) <= k * 4**k * tree_size(t)
        vt = evaluate(t).reshape([2] * n)
        axes = [q - 1 for q in qs]
        vt = np.moveaxis(vt, axes, range(k))
        vt = (u @ vt.reshape(1 << k, -1)).reshape([2] * n)
        want = np.moveaxis(vt, range(k), axes).reshape(-1)
        assert fidelity(evaluate(out), want) > 1 - 1e-9


def test_apply_local_unitary_rejects_bad_input():
    t = build_cat(2)
    with pytest.raises(NonUnitaryError):
        apply_local_unitary(t, np.ones((2, 2)), [1])
    with pytest.raises(ValueError):
        apply_local_unitary(t, np.eye(4), [1, 1])


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
    with pytest.raises(NonUnitaryError):
        local_basis_change(t, [np.eye(2)] * 5 + [np.ones((2, 2))])


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


def test_evaluate_rejects_structural_garbage():
    bad = StateTree(2, Plus(((1.0, Leaf(1, 1, 0)), (1.0, Leaf(2, 1, 0)))))
    with pytest.raises(InvalidTreeError):
        evaluate(bad)


@pytest.mark.parametrize("tree, want", [
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
])
def test_validate_pins_path_and_measured(tree, want):
    assert [(v.path, v.rule, v.measured) for v in validate(tree)] == want


@pytest.mark.parametrize("root, message", [
    (Plus(((1, Leaf(1, 1, 0)), (1, Leaf(2, 1, 0)), (1, Tensor((Leaf(1, 1, 0), Leaf(1, 1, 0)))))),
     "plus children cover different qubit sets"),
    (Tensor((Leaf(1, 1, 0), Leaf(1, 1, 0), Plus(((1, Leaf(2, 1, 0)), (1, Leaf(3, 1, 0)))))),
     "tensor children overlap on qubits"),
    (Tensor((Plus(((1, Leaf(1, 1, 0)), (1, Leaf(2, 1, 0)))), Leaf(1, 1, 0))),
     "plus children cover different qubit sets"),
    (Plus(((1, Tensor(())), (1, Leaf(1, 1, 0)))), "tensor vertex with no children"),
])
def test_evaluate_reports_first_fault_in_depth_first_order(root, message):
    with pytest.raises(InvalidTreeError) as err:
        evaluate(StateTree(4, root))
    assert str(err.value) == message
