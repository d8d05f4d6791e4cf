"""Builders vs direct-enumeration and phase oracles."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from statetrees import builders
from statetrees.builders import (_nonempty, _segment_counts, build_cat, build_cluster1d,
                                 build_coset_fourier_otree, build_coset_sigma1,
                                 build_divisibility_state,
                                 build_divisibility_tree, build_hamming,
                                 build_knill_tree, build_parity,
                                 build_parity_fourier)
from statetrees.dsl import parse, serialize
from statetrees.errors import OversizeError
from statetrees.gf2 import COSET_CAP, BitMatrix, Coset, random_bitmatrix, rank_gf2
from statetrees.mots import mots_coset
from statetrees.trees import (Leaf, Plus, StateTree, Tensor, classify_tree, evaluate, fidelity,
                              tree_size, validate)

_R2 = 1.0 / math.sqrt(2.0)


def uniform_over(indices, n):
    v = np.zeros(1 << n, dtype=complex)
    v[list(indices)] = 1 / math.sqrt(len(indices))
    return v


def test_cat():
    assert np.allclose(evaluate(build_cat(1)), [2**-0.5, 2**-0.5])
    assert np.allclose(evaluate(build_cat(2)), [2**-0.5, 0, 0, 2**-0.5])
    t = build_cat(5)
    assert tree_size(t) == 10
    assert validate(t) == []
    assert classify_tree(t) == "manifestly-orthogonal"
    assert fidelity(evaluate(t), uniform_over([0, 31], 5)) > 1 - 1e-12


@pytest.mark.parametrize("n,j", [(2, 0), (4, 0), (8, 1), (16, 0), (3, 1), (6, 0)])
def test_parity_vs_enumeration(n, j):
    t = build_parity(n, j)
    assert validate(t) == []
    v = evaluate(t)
    members = [x for x in range(1 << n) if bin(x).count("1") % 2 == j]
    assert fidelity(v, uniform_over(members, n)) > 1 - 1e-9
    if n & (n - 1) == 0:
        assert tree_size(t) == n * n
    assert classify_tree(t) == "manifestly-orthogonal"


@pytest.mark.parametrize("n", range(2, 15))
def test_parity_size_is_the_exact_mo_value(n):
    ones = BitMatrix(1, n, ((1 << n) - 1,))
    for j in (0, 1):
        want = mots_coset(ones, "classical", b=j, witness=False).value
        assert tree_size(build_parity(n, j)) == want


def ref_parity_node(qubits, j):
    """The parity builder before the uneven split: halve at powers of two,
    peel one qubit otherwise."""
    m = len(qubits)
    if m == 1:
        return Leaf(qubits[0], 1.0 - j, float(j))
    if m & (m - 1) == 0:
        left, right = qubits[: m // 2], qubits[m // 2:]
        even = Tensor((ref_parity_node(left, 0), ref_parity_node(right, j)))
        odd = Tensor((ref_parity_node(left, 1), ref_parity_node(right, j ^ 1)))
        return Plus(((_R2, even), (_R2, odd)))
    head, rest = qubits[0], qubits[1:]
    lo = Tensor((Leaf(head, 1.0, 0.0), ref_parity_node(rest, j)))
    hi = Tensor((Leaf(head, 0.0, 1.0), ref_parity_node(rest, j ^ 1)))
    return Plus(((_R2, lo), (_R2, hi)))


def ref_hamming_node(qubits, k):
    """The Hamming builder before the uneven split."""
    m = len(qubits)
    if m == 1:
        return Leaf(qubits[0], 1.0 - k, float(k))
    total = math.comb(m, k)
    if m & (m - 1) == 0:
        half = m // 2
        left_q, right_q = qubits[:half], qubits[half:]
        terms = []
        for j in range(max(0, k - half), min(half, k) + 1):
            ways = math.comb(half, j) * math.comb(half, k - j)
            if ways == 0:
                continue
            coeff = math.sqrt(ways / total)
            terms.append((coeff, Tensor((ref_hamming_node(left_q, j),
                                         ref_hamming_node(right_q, k - j)))))
        if len(terms) == 1 and terms[0][0] == 1.0:
            return terms[0][1]
        return Plus(tuple(terms))
    head, rest = qubits[0], qubits[1:]
    terms = []
    if k <= m - 1:
        coeff = math.sqrt(math.comb(m - 1, k) / total)
        terms.append((coeff, Tensor((Leaf(head, 1.0, 0.0), ref_hamming_node(rest, k)))))
    if k >= 1:
        coeff = math.sqrt(math.comb(m - 1, k - 1) / total)
        terms.append((coeff, Tensor((Leaf(head, 0.0, 1.0), ref_hamming_node(rest, k - 1)))))
    if len(terms) == 1 and terms[0][0] == 1.0:
        return terms[0][1]
    return Plus(tuple(terms))


@pytest.mark.parametrize("family, n_max", [("parity", 14), ("hamming", 12)])
def test_halving_builders_against_the_peel_reference(family, n_max):
    for n in range(1, n_max + 1):
        sizes, ref_sizes = 0, 0
        for w in ((0, 1) if family == "parity" else range(n + 1)):
            qubits = tuple(range(1, n + 1))
            if family == "parity":
                got, want = build_parity(n, w), StateTree(n, ref_parity_node(qubits, w))
            else:
                got, want = build_hamming(n, w), StateTree(n, ref_hamming_node(qubits, w))
            assert tree_size(got) <= tree_size(want)
            assert fidelity(evaluate(got), evaluate(want)) > 1 - 1e-9
            if n & (n - 1) == 0:
                assert serialize(got) == serialize(want)
            sizes += tree_size(got)
            ref_sizes += tree_size(want)
        if n >= 5 and n & (n - 1):  # at n = 3 both rules build the same sizes
            assert sizes < ref_sizes


def test_halving_builder_sizes_follow_their_recurrences():
    def s(m):
        return 1 if m == 1 else 2 * (s(m // 2) + s(m - m // 2))

    def h(m, k):
        if m == 1:
            return 1
        lh, rh = m // 2, m - m // 2
        return sum(h(lh, j) + h(rh, k - j) for j in range(max(0, k - rh), min(lh, k) + 1))

    assert tree_size(build_parity(63, 1)) == s(63) == 4000
    assert tree_size(build_hamming(40, 20)) == h(40, 20) == 51744


def test_predicted_leaf_counts_match_the_built_trees(monkeypatch):
    # the halving engine's one counter, and the coset builders' n |C| and
    # n 2^rank, refuse a build exactly when it passes the cap
    cases = [(build_parity, (n, n % 2)) for n in range(1, 18)]
    cases += [(build_hamming, (n, k)) for n in range(1, 18) for k in range(n + 1)]
    cases += [(build_cluster1d, (n,)) for n in range(2, 17)]
    cases += [(build, (Coset(random_bitmatrix(k, 6, 3, k), 0),))
              for build in (build_coset_sigma1, build_coset_fourier_otree) for k in range(6)]
    sizes = [tree_size(build(*args)) for build, args in cases]
    for (build, args), size in zip(cases, sizes):
        monkeypatch.setattr(builders, "COSET_CAP", size)
        assert tree_size(build(*args)) == size
        monkeypatch.setattr(builders, "COSET_CAP", size - 1)
        with pytest.raises(OversizeError, match=f"more than {size - 1} leaves"):
            build(*args)


def _distinct_vertices(root) -> int:
    """Vertex objects under root, each shared one counted once."""
    seen = {id(root)}
    todo = [root]
    while todo:
        node = todo.pop()
        if isinstance(node, Plus):
            kids = [ch for _, ch in node.children]
        else:
            kids = node.children if isinstance(node, Tensor) else ()
        for ch in kids:
            if id(ch) not in seen:
                seen.add(id(ch))
                todo.append(ch)
    return len(seen)


def test_halving_builders_share_subtrees_as_parse_does():
    cases = [(build_parity, (n, j)) for n in range(1, 33) for j in (0, 1)]
    cases += [(build_hamming, (n, k)) for n in range(1, 25) for k in range(n + 1)]
    cases += [(build_cluster1d, (n,)) for n in range(2, 21)]
    for build, args in cases:
        t = build(*args)
        parsed = parse(serialize(t), n=t.n).root
        assert t.root == parsed
        assert _distinct_vertices(t.root) == _distinct_vertices(parsed), (build.__name__, args)
    assert [_distinct_vertices(t.root) for t in (build_cluster1d(16), build_hamming(14, 7),
                                                 build_parity(14, 0))] == [342, 159, 103]


def test_nonempty_sectors_match_the_count_tables():
    for m in range(1, 41):
        counts = _segment_counts(m)
        assert [(i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1) if _nonempty(m, i, j, k)] \
            == sorted(counts)


def test_cluster1d_past_the_cap_is_refused_before_any_count_table():
    tables = _segment_counts.cache_info().currsize
    start = time.perf_counter()
    with pytest.raises(OversizeError, match=f"more than {COSET_CAP} leaves"):
        build_cluster1d(1 << 20)
    assert time.perf_counter() - start < 0.1
    assert _segment_counts.cache_info().currsize == tables


@pytest.mark.parametrize("build, args", [
    (build_hamming, (128, 64)), (build_hamming, (1 << 20, 1 << 19)), (build_hamming, (1 << 21, 1)),
    (build_parity, (10_000, 0)), (build_parity, (10 ** 18, 1)),
    (build_cluster1d, (60,)), (build_cluster1d, (10 ** 12,)),
])
def test_builds_past_the_cap_are_refused(build, args):
    with pytest.raises(OversizeError, match=f"more than {COSET_CAP} leaves"):
        build(*args)


def test_parity_base():
    assert np.allclose(evaluate(build_parity(2, 0)), [2**-0.5, 0, 0, 2**-0.5])
    with pytest.raises(ValueError):
        build_parity(4, 2)


@pytest.mark.parametrize("n", [1, 2, 6])
def test_parity_fourier(n):
    for j in (0, 1):
        tf = build_parity_fourier(n, j)
        assert validate(tf) == []
        assert tree_size(tf) == 2 * n
        assert fidelity(evaluate(tf), evaluate(build_parity(n, j))) > 1 - 1e-9
    if n >= 2:
        assert classify_tree(build_parity_fourier(n, 0)) == "orthogonal"


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12])
def test_cluster1d_vs_phase_oracle(n):
    t = build_cluster1d(n)
    assert validate(t) == []
    v = evaluate(t)
    expect = np.zeros(1 << n, dtype=complex)
    for x in range(1 << n):
        bits = [(x >> (n - 1 - i)) & 1 for i in range(n)]
        phase = sum(bits[i] * bits[i + 1] for i in range(n - 1)) % 2
        expect[x] = (-1) ** phase / 2 ** (n / 2)
    assert fidelity(v, expect) > 1 - 1e-9


def test_cluster1d_n2_matches_fixture_state():
    assert np.allclose(evaluate(build_cluster1d(2)), [0.5, 0.5, 0.5, -0.5])
    with pytest.raises(ValueError):
        build_cluster1d(1)


@pytest.mark.parametrize("n,k", [(2, 1), (4, 2), (8, 4), (8, 0), (5, 3), (7, 2)])
def test_hamming_vs_enumeration(n, k):
    t = build_hamming(n, k)
    assert validate(t) == []
    assert classify_tree(t) == "manifestly-orthogonal"
    members = [x for x in range(1 << n) if bin(x).count("1") == k]
    assert fidelity(evaluate(t), uniform_over(members, n)) > 1 - 1e-9


def test_hamming_42_amplitudes():
    v = evaluate(build_hamming(4, 2))
    members = [x for x in range(16) if bin(x).count("1") == 2]
    for x in members:
        assert v[x] == pytest.approx(1 / math.sqrt(6), abs=1e-12)
    with pytest.raises(ValueError):
        build_hamming(4, 5)
    with pytest.raises(ValueError):
        build_hamming(0, 0)


def test_coset_sigma1():
    c = Coset(BitMatrix(1, 2, (0b11,)), 0)
    t = build_coset_sigma1(c)
    assert fidelity(evaluate(t), evaluate(build_cat(2))) > 1 - 1e-12
    # single-point coset: one product term, no plus vertex
    ident = Coset(BitMatrix(3, 3, (0b100, 0b010, 0b001)), 0b011)
    t = build_coset_sigma1(ident)
    assert tree_size(t) == 3
    # parity coset on 4 qubits: 8 terms
    c = Coset(BitMatrix(1, 4, (0b1111,)), 0)
    t = build_coset_sigma1(c)
    assert tree_size(t) == 32
    assert classify_tree(t) == "manifestly-orthogonal"


@pytest.mark.parametrize("trial", range(12))
def test_coset_fourier_vs_sigma1(trial):
    n = 4 + trial % 7
    k = trial % 4
    a = random_bitmatrix(k, n, 500, trial)
    b = a.mul_vec(trial)
    c = Coset(a, b)
    t1 = build_coset_sigma1(c)
    t2 = build_coset_fourier_otree(c)
    assert validate(t2) == []
    assert fidelity(evaluate(t1), evaluate(t2)) > 1 - 1e-9
    assert tree_size(t2) <= 2 * n * (1 << rank_gf2(a))
    assert classify_tree(t2) in ("orthogonal", "manifestly-orthogonal")


def test_coset_fourier_parity2_is_cat2():
    c = Coset(BitMatrix(1, 2, (0b11,)), 0)
    t = build_coset_fourier_otree(c)
    assert fidelity(evaluate(t), evaluate(build_cat(2))) > 1 - 1e-12


def test_coset_fourier_k0_single_term():
    c = Coset(BitMatrix(0, 4, ()), 0)
    t = build_coset_fourier_otree(c)
    assert tree_size(t) <= 8
    expect = np.full(16, 0.25, dtype=complex)
    assert fidelity(evaluate(t), expect) > 1 - 1e-12


@pytest.mark.parametrize("n,p", [(3, 2), (4, 3), (8, 5), (10, 13), (6, 7), (10, 11)])
def test_divisibility(n, p):
    v = build_divisibility_state(n, p)
    members = list(range(0, 1 << n, p))
    assert np.allclose(v, uniform_over(members, n))
    t = build_divisibility_tree(n, p)
    assert validate(t) == []
    assert tree_size(t) == n * p
    assert fidelity(evaluate(t), v) > 1 - 1e-9


def test_divisibility_small_cases():
    v = build_divisibility_state(3, 2)
    assert np.allclose(v, uniform_over([0, 2, 4, 6], 3))
    v = build_divisibility_state(4, 3)
    assert np.allclose(v, uniform_over([0, 3, 6, 9, 12, 15], 4))
    with pytest.raises(ValueError):
        build_divisibility_tree(2, 1)
    with pytest.raises(ValueError):
        build_divisibility_tree(2, 3)


def test_knill_tree():
    t = build_knill_tree()
    assert tree_size(t) == 40
    assert validate(t) == []
    assert classify_tree(t) == "manifestly-orthogonal"
    v = evaluate(t)
    plus = ["00000", "10010", "01001", "10100", "01010", "00101"]
    minus = ["11011", "00110", "11000", "11101", "00011", "11110",
             "01111", "10001", "01100", "10111"]
    for s in plus:
        assert v[int(s, 2)] == pytest.approx(0.25, abs=1e-9)
    for s in minus:
        assert v[int(s, 2)] == pytest.approx(-0.25, abs=1e-9)
    assert np.count_nonzero(np.abs(v) > 1e-9) == 16
