"""Multilinear formulas: evaluation, expansion, conversions, balancing."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import random_multilinear_formula, random_tree
from statetrees.builders import (build_cat, build_cluster1d, build_hamming,
                                 build_knill_tree, build_parity,
                                 build_parity_fourier)
from statetrees.errors import NonMultilinearError
from statetrees.formulas import (Add, Const, Mul, Var, balance,
                                 build_threshold_formula, expand_polynomial,
                                 formula_depth, formula_eval, formula_size,
                                 formula_to_tree, formula_truth_values,
                                 formula_vars, function_to_state, is_multilinear,
                                 is_syntactic, make_syntactic, parse_formula,
                                 polys_close, serialize_formula,
                                 state_to_function, tree_to_formula)
from statetrees.dsl import fmt_complex, serialize
from statetrees.rng import stream
from statetrees.trees import (Leaf, Plus, StateTree, Tensor, evaluate, fidelity,
                              normalize_node, tree_size, validate)


def one_minus(g):
    return Add(Const(1), Mul(Const(-1), g))


def test_eval_and_size():
    assert formula_eval(Var(1), {1: 1}) == 1
    f = Add(Mul(one_minus(Var(1)), one_minus(Var(2))), Mul(Var(1), Var(2)))
    for x1 in (0, 1):
        for x2 in (0, 1):
            want = 1 if x1 == x2 else 0
            assert formula_eval(f, {1: x1, 2: x2}) == pytest.approx(want)
    assert formula_size(Add(Mul(Var(1), Var(2)), Mul(Const(2.5), Var(3)))) == 4


def test_expand_polynomial():
    f = Mul(Add(Var(1), Const(2)), Var(2))
    assert polys_close(expand_polynomial(f), {0b11: 1, 0b10: 2})
    with pytest.raises(NonMultilinearError):
        expand_polynomial(Mul(Var(1), Var(1)))
    assert not is_multilinear(Mul(Var(1), Add(Var(1), Const(1))))


def test_truth_values_match_pointwise_eval():
    rng = stream(21)
    for trial in range(15):
        f = random_multilinear_formula(rng, list(range(1, 6)), 40)
        tv = formula_truth_values(f, 5)
        for x in range(32):
            point = {i: (x >> (5 - i)) & 1 for i in range(1, 6)}
            assert tv[x] == pytest.approx(formula_eval(f, point), abs=1e-9)


def test_make_syntactic_spec_case():
    f = Mul(Var(1), Add(Var(2), Mul(Const(0), Var(1))))
    assert not is_syntactic(f)
    g = make_syntactic(f)
    assert is_syntactic(g)
    assert formula_size(g) <= formula_size(f)
    assert polys_close(expand_polynomial(g), {0b11: 1})


def test_make_syntactic_keeps_already_syntactic():
    f = Mul(Var(1), Var(2))
    assert make_syntactic(f) == f


def test_make_syntactic_random():
    rng = stream(22)
    done = 0
    while done < 50:
        base = random_multilinear_formula(rng, list(range(1, 8)), 48)
        used = sorted(formula_vars(base))
        if not used:
            continue
        # graft a degree-0 mention of a used variable into a product:
        # multilinear but not syntactic
        x = int(rng.choice(used))
        c = float(rng.integers(1, 4))
        f = Mul(Add(Const(c), Mul(Const(0), Var(x))), base)
        assert not is_syntactic(f)
        g = make_syntactic(f)
        assert is_syntactic(g)
        assert formula_size(g) <= formula_size(f)
        assert polys_close(expand_polynomial(g), expand_polynomial(f), 1e-9)
        done += 1


def test_make_syntactic_rejects_nonmultilinear():
    with pytest.raises(NonMultilinearError):
        make_syntactic(Mul(Var(1), Add(Var(1), Const(1))))


def test_tree_to_formula_leaf():
    f = tree_to_formula(random_tree(50, 1))
    t = random_tree(50, 1)
    v = evaluate(t)
    f = tree_to_formula(t)
    assert formula_eval(f, {1: 0}) == pytest.approx(complex(v[0]), abs=1e-12)
    assert formula_eval(f, {1: 1}) == pytest.approx(complex(v[1]), abs=1e-12)


@pytest.mark.parametrize("make", [
    lambda: build_cat(3),
    lambda: build_parity(4, 0),
    lambda: build_cluster1d(4),
    lambda: build_knill_tree(),
    lambda: build_hamming(4, 2),
])
def test_tree_to_formula_pointwise(make):
    t = make()
    f = tree_to_formula(t)
    assert is_multilinear(f)
    v = evaluate(t)
    tv = formula_truth_values(f, t.n)
    assert np.allclose(tv, v, atol=1e-9)


def test_tree_to_formula_pointwise_random_grid():
    for trial in range(10):
        n = 2 + trial % 5
        t = random_tree(60, n, trial)
        tv = formula_truth_values(tree_to_formula(t), n)
        assert np.allclose(tv, evaluate(t), atol=1e-9)
    # full 2^10 grid on a bigger structured state
    t = build_parity(10, 1)
    tv = formula_truth_values(tree_to_formula(t), 10)
    assert np.max(np.abs(tv - evaluate(t))) <= 1e-9


def test_formula_to_tree_basics():
    t = formula_to_tree(Mul(Var(1), Var(2)), 2)
    assert np.allclose(evaluate(t), [0, 0, 0, 1])
    with pytest.raises(ValueError):
        formula_to_tree(Const(0), 2)
    with pytest.raises(NonMultilinearError):
        formula_to_tree(Mul(Var(1), Var(1)), 1)


def test_formula_roundtrip_on_builders():
    cases = [build_cat(3), build_parity(4, 1), build_parity_fourier(5, 0),
             build_cluster1d(4), build_knill_tree(), build_hamming(5, 2)]
    for t in cases:
        f = tree_to_formula(t)
        t2 = formula_to_tree(f, t.n)
        assert validate(t2) == []
        assert fidelity(evaluate(t2), evaluate(t)) > 1 - 1e-9
        assert tree_size(t2) <= 3 * (formula_size(f) + t.n)


def test_formula_to_tree_normalizes():
    # f = x1 + (1-x1) has values (1,1); the state is the uniform one
    f = Add(Var(1), one_minus(Var(1)))
    t = formula_to_tree(f, 2)
    assert np.allclose(evaluate(t), [0.5, 0.5, 0.5, 0.5])


def test_balance_comb():
    f = Var(1)
    for i in range(2, 33):
        f = Add(f, Var(i))
    assert formula_depth(f) == 31
    b = balance(f)
    assert formula_depth(b) <= 28
    assert polys_close(expand_polynomial(b, max_vars=32),
                       expand_polynomial(f, max_vars=32))


def test_balance_leaf_and_random():
    assert balance(Var(1)) == Var(1)
    rng = stream(23)
    from conftest import DYADIC_POOL
    for trial in range(50):
        # dyadic constants keep the expansions exact, so the 1e-9
        # coefficient comparison is about structure, not float noise
        f = random_multilinear_formula(rng, list(range(1, 11)),
                                       int(rng.integers(4, 257)),
                                       const_pool=DYADIC_POOL)
        sz = formula_size(f)
        b = balance(f)
        assert polys_close(expand_polynomial(b), expand_polynomial(f), 1e-9)
        assert formula_depth(b) <= 4 * math.log2(max(sz, 2)) + 8


def test_balance_rejects_nonmultilinear():
    with pytest.raises(NonMultilinearError):
        balance(Mul(Var(1), Var(1)))


def test_threshold_bases():
    assert build_threshold_formula(1, 1) == Var(1)
    assert build_threshold_formula(3, 0) == Const(1)
    t21 = formula_truth_values(build_threshold_formula(2, 1), 2).real
    assert np.allclose(t21, [0, 1, 1, 1], atol=1e-9)


@pytest.mark.parametrize("k", range(1, 9))
def test_threshold_counting_oracle(k):
    for h in range(k + 1):
        f = build_threshold_formula(k, h)
        assert is_multilinear(f)
        tv = formula_truth_values(f, k).real
        for x in range(1 << k):
            assert tv[x] == pytest.approx(1.0 if bin(x).count("1") >= h else 0.0,
                                          abs=1e-9)


def test_majority_8():
    f = build_threshold_formula(8, 4)
    tv = formula_truth_values(f, 8).real
    cnt = np.array([bin(x).count("1") for x in range(256)])
    assert np.allclose(tv, (cnt >= 4).astype(float), atol=1e-9)


def test_state_function_roundtrip():
    cat = evaluate(build_cat(3))
    table = state_to_function(cat)
    assert np.allclose(function_to_state(table), cat)
    rng = stream(24)
    v = rng.normal(size=16) + 1j * rng.normal(size=16)
    v /= np.linalg.norm(v)
    assert np.allclose(function_to_state(state_to_function(v)), v)
    # unnormalized tables are normalized
    assert np.allclose(function_to_state(np.ones(4)), np.full(4, 0.5))
    with pytest.raises(ValueError):
        function_to_state(np.zeros(4))


def test_formula_dsl_roundtrip():
    rng = stream(25)
    for trial in range(30):
        f = random_multilinear_formula(rng, list(range(1, 7)), 30,
                                       complex_consts=True)
        text = serialize_formula(f)
        f2 = parse_formula(text)
        assert serialize_formula(f2) == text
        assert polys_close(expand_polynomial(f2), expand_polynomial(f), 1e-12)


# ---------------------------------------------------------------------------
# the recursive walkers the explicit-stack fold replaced, kept as its oracles


def ref_size(g):
    return 1 if isinstance(g, (Var, Const)) else ref_size(g.left) + ref_size(g.right)


def ref_depth(g):
    return 0 if isinstance(g, (Var, Const)) else 1 + max(ref_depth(g.left), ref_depth(g.right))


def ref_vars(g):
    if isinstance(g, Var):
        return frozenset((g.index,))
    if isinstance(g, Const):
        return frozenset()
    return ref_vars(g.left) | ref_vars(g.right)


def ref_eval(g, point):
    if isinstance(g, Var):
        return complex(point[g.index])
    if isinstance(g, Const):
        return complex(g.value)
    a, b = ref_eval(g.left, point), ref_eval(g.right, point)
    return a + b if isinstance(g, Add) else a * b


def ref_truth_values(g, nvars):
    points = np.arange(1 << nvars)
    if isinstance(g, Var):
        return ((points >> (nvars - g.index)) & 1).astype(complex)
    if isinstance(g, Const):
        return np.full(1 << nvars, complex(g.value))
    a, b = ref_truth_values(g.left, nvars), ref_truth_values(g.right, nvars)
    return a + b if isinstance(g, Add) else a * b


def ref_expand(g, max_vars=24, max_terms=1 << 22):
    nv = ref_vars(g)
    if nv and max(nv) > max_vars:
        raise NonMultilinearError(f"expansion capped at {max_vars} variables")

    def add_into(out, m, c):
        nc = out.get(m, 0.0 + 0.0j) + c
        if abs(nc) <= 0.0:
            out.pop(m, None)
        else:
            out[m] = nc

    def rec(g):
        if isinstance(g, Var):
            return {1 << (g.index - 1): 1.0 + 0.0j}
        if isinstance(g, Const):
            return {} if g.value == 0 else {0: complex(g.value)}
        lp, rp = rec(g.left), rec(g.right)
        out = dict(lp) if isinstance(g, Add) else {}
        if isinstance(g, Add):
            for m, c in rp.items():
                add_into(out, m, c)
            return out
        if len(lp) * len(rp) > max_terms:
            raise NonMultilinearError("expansion exceeds the term budget")
        for m1, c1 in lp.items():
            for m2, c2 in rp.items():
                if m1 & m2:
                    raise NonMultilinearError(
                        "a * vertex multiplies two polynomials sharing a variable")
                add_into(out, m1 | m2, c1 * c2)
        return out

    return rec(g)


def ref_is_syntactic(g):
    if isinstance(g, (Var, Const)):
        return True
    if isinstance(g, Mul) and ref_vars(g.left) & ref_vars(g.right):
        return False
    return ref_is_syntactic(g.left) and ref_is_syntactic(g.right)


def ref_substitute_zero(g, var):
    if isinstance(g, Var):
        return Const(0.0 + 0.0j) if g.index == var else g
    if isinstance(g, Const):
        return g
    l, r = ref_substitute_zero(g.left, var), ref_substitute_zero(g.right, var)
    return Add(l, r) if isinstance(g, Add) else Mul(l, r)


def ref_make_syntactic(g, cap=None):
    if cap is None:
        nv = ref_vars(g)
        cap = max(24, max(nv) if nv else 0)
    if isinstance(g, (Var, Const)):
        return g
    left, right = ref_make_syntactic(g.left, cap), ref_make_syntactic(g.right, cap)
    if isinstance(g, Add):
        return Add(left, right)
    shared = ref_vars(left) & ref_vars(right)
    if shared:
        lp, rp = ref_expand(left, max_vars=cap), ref_expand(right, max_vars=cap)
        for x in sorted(shared):
            bit = 1 << (x - 1)
            if not any(m & bit for m in lp):
                left = ref_substitute_zero(left, x)
            elif not any(m & bit for m in rp):
                right = ref_substitute_zero(right, x)
            else:
                raise NonMultilinearError(f"variable x{x} has positive degree in both factors")
    return Mul(left, right)


def ref_formula_to_tree(f, n):
    g = ref_make_syntactic(f)
    if ref_vars(g) and max(ref_vars(g)) > n:
        raise ValueError("formula mentions variables beyond n")

    def pad(node, have, need):
        parts = [Leaf(q + 1, 1.0, 1.0) for q in range(n) if ((need & ~have) >> q) & 1]
        if node is not None:
            parts.append(node)
        if not parts:
            return None
        return parts[0] if len(parts) == 1 else Tensor(tuple(parts))

    def leaf_value(scalar, node, bit):
        return scalar if node is None else scalar * (node.beta if bit else node.alpha)

    def rec(g2):
        if isinstance(g2, Var):
            return 1.0 + 0.0j, Leaf(g2.index, 0.0, 1.0), 1 << (g2.index - 1)
        if isinstance(g2, Const):
            return complex(g2.value), None, 0
        s1, t1, m1 = rec(g2.left)
        s2, t2, m2 = rec(g2.right)
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
            alpha = leaf_value(s1, t1, 0) + leaf_value(s2, t2, 0)
            beta = leaf_value(s1, t1, 1) + leaf_value(s2, t2, 1)
            if alpha == 0 and beta == 0:
                return 0.0 + 0.0j, None, 0
            return 1.0 + 0.0j, Leaf(union.bit_length(), alpha, beta), union
        return 1.0 + 0.0j, Plus(((s1, pad(t1, m1, union)), (s2, pad(t2, m2, union)))), union

    scalar, node, mask = rec(g)
    if scalar == 0:
        raise ValueError("the zero function has no state")
    node = pad(node, mask, (1 << n) - 1)
    if node is None:
        raise ValueError("n must be at least 1")
    root = normalize_node(node)[1]
    if scalar / abs(scalar) != 1:  # the root keeps only the scalar's phase
        root = Plus(((scalar / abs(scalar), root),))
    return StateTree(n, root)


def ref_serialize(f):
    def rend(g, indent):
        if isinstance(g, Var):
            return f"(var {g.index})"
        if isinstance(g, Const):
            return f"(const {fmt_complex(g.value)})"
        op = "+" if isinstance(g, Add) else "*"
        a, b = rend(g.left, indent + 2), rend(g.right, indent + 2)
        flat = f"({op} {a} {b})"
        if len(flat) + indent <= 100 and "\n" not in flat:
            return flat
        pad = " " * (indent + 2)
        return f"({op}\n{pad}{a}\n{pad}{b})"

    return rend(f, 0) + "\n"


def ref_balance(f):
    nv = ref_vars(f)
    cap = max(24, max(nv) if nv else 0)
    ref_expand(f, max_vars=cap)
    return _ref_balance(ref_make_syntactic(f, cap))


def _ref_balance(f):
    if ref_size(f) <= 3:
        return f
    total, path, cur = ref_size(f), [], f
    while ref_size(cur) * 3 > 2 * total and not isinstance(cur, (Var, Const)):
        side = "l" if ref_size(cur.left) >= ref_size(cur.right) else "r"
        path.append((cur, side))
        cur = cur.left if side == "l" else cur.right
    if not path:
        return f
    target = cur
    g = h = None
    for vertex, side in reversed(path):
        other = vertex.right if side == "l" else vertex.left
        if isinstance(vertex, Add):
            g = other if g is None else Add(g, other)
        else:
            g = None if g is None else Mul(g, other)
            h = other if h is None else Mul(h, other)
    if h is not None and ref_vars(h) & ref_vars(target):
        raise NonMultilinearError("balancing would multiply shared variables")
    bi = _ref_balance(target)
    bh = None if h is None else _ref_balance(h)
    bg = None if g is None else _ref_balance(g)
    prod = bi if bh is None else Mul(bh, bi)
    return prod if bg is None else Add(bg, prod)


def _oracle_corpus():
    rng = stream(26)
    for trial in range(200):
        nv = 1 + trial % 10
        f = random_multilinear_formula(rng, list(range(1, nv + 1)), int(rng.integers(1, 120)),
                                       complex_consts=trial % 3 == 0)
        used = sorted(formula_vars(f))
        if trial % 4 == 1 and used:
            # a degree-0 mention of a used variable in a product: not syntactic
            f = Mul(Add(Const(1.5), Mul(Const(0), Var(int(rng.choice(used))))), f)
        elif trial % 8 == 2 and used:
            f = Mul(Add(Var(int(rng.choice(used))), Const(1)), f)  # mostly not multilinear
        elif trial % 8 == 4 and len(used) > 1:
            # two vertices to reject: the error names the first in post-order
            x, y = (int(v) for v in rng.choice(used, 2, replace=False))
            square = lambda v: Mul(Add(Var(v), Const(1)), Var(v))
            f = Add(Add(f, square(x)), Mul(Const(2), square(y)))
        elif trial % 8 == 6:
            f = Mul(Const(0), f)  # the zero function
        yield f, nv
    for k in range(1, 13):
        for h in range(k + 1):
            yield build_threshold_formula(k, h), k


def _outcome(fn, *args):
    """fn's result as comparable data (formulas and trees as their text), or its error."""
    try:
        got = fn(*args)
    except (NonMultilinearError, ValueError) as e:
        return type(e), str(e)
    if isinstance(got, (Var, Const, Add, Mul)):
        return ref_serialize(got)
    return serialize(got) if isinstance(got, StateTree) else got


def test_walkers_agree_with_their_recursive_references():
    count = 0
    for f, nv in _oracle_corpus():
        point = {i: complex(0.5 * i, -1.0 / i) for i in range(1, nv + 1)}
        assert formula_size(f) == ref_size(f)
        assert formula_depth(f) == ref_depth(f)
        assert formula_vars(f) == ref_vars(f)
        assert formula_eval(f, point) == ref_eval(f, point)
        assert np.array_equal(formula_truth_values(f, nv), ref_truth_values(f, nv))
        assert _outcome(expand_polynomial, f) == _outcome(ref_expand, f)
        assert is_syntactic(f) == ref_is_syntactic(f)
        text = serialize_formula(f)
        assert text == ref_serialize(f)
        assert ref_serialize(parse_formula(text)) == text
        assert _outcome(make_syntactic, f) == _outcome(ref_make_syntactic, f)
        assert _outcome(balance, f) == _outcome(ref_balance, f)
        assert _outcome(formula_to_tree, f, nv) == _outcome(ref_formula_to_tree, f, nv)
        count += 1
    assert count == 200 + sum(k + 1 for k in range(1, 13))


def test_root_scalar_keeps_only_its_phase():
    import tracemalloc
    tracemalloc.start()
    try:
        tree = formula_to_tree(Mul(Const(2), Var(1)), 22)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    assert isinstance(tree.root, Tensor)  # a positive scalar leaves no one-child + vertex
    for scalar in (2, -3, 2j, 0.5 - 0.5j, 1):
        f = Mul(Const(scalar), Add(Var(1), Mul(Const(0.5), Var(2))))
        want = formula_truth_values(f, 3)
        got = evaluate(formula_to_tree(f, 3))
        assert np.max(np.abs(got - want / np.linalg.norm(want))) <= 1e-12


def _clamped(text: str, cap: int = 100) -> str:
    """text with every line's indent cut to cap spaces."""
    return "".join(" " * min(len(ln) - len(ln.lstrip(" ")), cap) + ln.lstrip(" ")
                   for ln in text.splitlines(keepends=True))


def test_writer_indent_stops_50_levels_down():
    for depth in (30, 50, 51, 120):
        f = Var(2)
        for _ in range(depth):
            f = Add(Var(1), f)
        text, ref = serialize_formula(f), ref_serialize(f)
        assert text == _clamped(ref)
        assert (text == ref) == (depth <= 50)
