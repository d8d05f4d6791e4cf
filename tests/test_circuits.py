"""Circuit compiler and simulator."""

from __future__ import annotations

import re

import numpy as np
import pytest

from conftest import random_unitary
from statetrees.builders import (build_cat, build_cluster1d, build_coset_fourier_otree,
                                 build_coset_sigma1, build_divisibility_tree,
                                 build_hamming, build_knill_tree, build_parity,
                                 build_parity_fourier)
from statetrees import circuits
from statetrees.circuits import (Circuit, ControlledSub, OrNot, Prep,
                                 PrepStateError, Unitary, compile_tree,
                                 format_circuit, gate_count,
                                 parse_circuit, simulate, verify_prepare)
from statetrees.circuits import _ALL, _binarize, _check_unitary, _fix, _mass, _relaxed
from statetrees.dsl import fmt_float, format_amplitudes
from statetrees.errors import (InvalidTreeError, NonOrthogonalError, NonUnitaryError, OversizeError,
                              ParseError, StateTreesError)
from statetrees.gf2 import BitMatrix, Coset, random_bitmatrix
from statetrees.rng import stream
from statetrees.trees import (TOLERANCE, Leaf, Plus, StateTree, Tensor, basis_product,
                              classify_tree, mask_qubits, qubit_mask)


def test_product_tree_compiles_to_preps():
    t = StateTree(3, Tensor((Leaf(1, 1, 0), Leaf(2, 0.6, 0.8),
                             Leaf(3, 2**-0.5, 2**-0.5))))
    c = compile_tree(t)
    assert c.n_ancilla == 0
    assert gate_count(c) == 3
    assert all(isinstance(g, Prep) for g in c.gates)
    assert verify_prepare(t)["fidelity"] > 1 - 1e-9


def test_cat2():
    rep = verify_prepare(build_cat(2))
    assert rep["ancillas"] == 1
    assert rep["fidelity"] > 1 - 1e-9


def test_ornot_semantics():
    v = simulate(Circuit(2, 0, [OrNot(0, (1,))]))
    assert v[0b00] == pytest.approx(1)  # register |0>: unchanged
    v = simulate(Circuit(2, 0, [Prep(1, 0, 1), OrNot(0, (1,))]))
    assert v[0b11] == pytest.approx(1)  # register |1>: target flipped


def test_controlled_sub_polarity():
    body = Circuit(2, 0, [Prep(1, 0, 1)])
    v = simulate(Circuit(2, 0, [ControlledSub(0, 0, body)]))
    assert v[0b01] == pytest.approx(1)
    v = simulate(Circuit(2, 0, [ControlledSub(0, 1, body)]))
    assert v[0b00] == pytest.approx(1)  # control not satisfied


def test_prep_on_nonzero_raises():
    with pytest.raises(PrepStateError):
        simulate(Circuit(1, 0, [Prep(0, 0, 1), Prep(0, 1, 0)]))


def test_invert_undoes_random_circuits():
    rng = stream(31)
    for trial in range(20):
        gates = []
        for _ in range(6):
            kind = int(rng.integers(0, 3))
            if kind == 0:
                gates.append(Unitary((int(rng.integers(0, 4)),), random_unitary(rng, 2)))
            elif kind == 1:
                a, b = sorted(int(x) for x in rng.permutation(4)[:2])
                gates.append(Unitary((a, b), random_unitary(rng, 4)))
            else:
                ws = [int(x) for x in rng.permutation(4)[:3]]
                gates.append(OrNot(ws[0], tuple(ws[1:])))
        c = Circuit(4, 0, gates)
        v = simulate(Circuit(4, 0, c.gates + _relaxed(c.gates, inverse=True)))
        assert abs(v[0] - 1) < 1e-9


def test_invert_involution_matrices():
    c = compile_tree(build_cat(3))
    cc = Circuit(c.n_data, c.n_ancilla, _relaxed(_relaxed(c.gates, inverse=True), inverse=True))

    def matrices(circ):
        for g in circ.gates:
            if isinstance(g, Prep):
                yield g.matrix()
            elif isinstance(g, Unitary):
                yield np.asarray(g.matrix)
            elif isinstance(g, ControlledSub):
                yield from matrices(g.body)

    for m1, m2 in zip(matrices(c), matrices(cc)):
        assert np.max(np.abs(m1 - m2)) < 1e-12


def test_compile_rejects_general_trees():
    from statetrees.trees import Plus
    t = StateTree(1, Plus(((0.6, Leaf(1, 1, 0)), (0.8, Leaf(1, 0, 1)))))
    # |0> and |1> are orthogonal, this compiles; a repeated-leaf sum must not
    r2 = 2**-0.5
    bad = StateTree(1, Plus(((r2, Leaf(1, r2, r2)), (r2, Leaf(1, r2, r2)))))
    with pytest.raises(NonOrthogonalError):
        compile_tree(bad)
    assert verify_prepare(t)["fidelity"] > 1 - 1e-9


def test_corpus_fidelities():
    a = BitMatrix(3, 8, (0b11001010, 0b00111100, 0b01010101))
    corpus = [
        build_cat(2), build_cat(6),
        build_parity(4, 0), build_parity(8, 1),
        build_parity_fourier(6, 0),
        build_knill_tree(),
        build_coset_fourier_otree(Coset(a, a.mul_vec(0b10110001))),
    ]
    for t in corpus:
        rep = verify_prepare(t)
        assert rep["fidelity"] > 1 - 1e-9, rep
        assert rep["n"] + rep["ancillas"] <= 12


def test_simulate_oversize():
    with pytest.raises(OversizeError):
        simulate(Circuit(21, 0, []))


def test_circuit_text_roundtrip():
    c = compile_tree(build_parity(4, 0))
    text = format_circuit(c)
    c2 = parse_circuit(text)
    assert format_circuit(c2) == text
    assert np.allclose(simulate(c2), simulate(c), atol=1e-12)


def test_circuit_parse_errors():
    with pytest.raises(ParseError):
        parse_circuit("nonsense\n")
    with pytest.raises(ParseError):
        parse_circuit("qubits 2 0\nprep 0 1 0\n")  # wrong arity
    with pytest.raises(ParseError):
        parse_circuit("qubits 2 0\ncsub 0 1 {\nprep 1 1 0 0 0\n")  # unterminated
    with pytest.raises(ParseError, match="^2:12: qubit count -2 is negative$"):
        parse_circuit("; header\n  qubits 3 -2\n")


@pytest.mark.parametrize("gates", [
    [Unitary((0,), np.array([[2, 0], [0, 2]]))],
    [Prep(0, 1, 1)],
    [Prep(0, float("nan"), 0)],
    [Unitary((0,), np.array([[np.nan, 0], [0, 1]]))],
    [Prep(1, 1, 0), ControlledSub(1, 0, Circuit(2, 0, [Unitary((0,), np.eye(2) * 1.5)]))],
], ids=["u-not-unitary", "prep-norm-2", "prep-nan", "u-nan", "u-inside-csub"])
def test_simulate_rejects_non_unitary_gates(gates):
    with pytest.raises(NonUnitaryError):
        simulate(Circuit(2, 0, gates))


def test_every_compiled_builder_tree_simulates_after_a_text_round_trip():
    cosets = [Coset(a, a.mul_vec(t)) for t, a in
              enumerate(random_bitmatrix(1 + t % 4, 6, 77, t) for t in range(6))]
    trees = ([build_cat(n) for n in (2, 5, 8)]
             + [build_parity(n, j) for n in (3, 6) for j in (0, 1)]
             + [build_parity_fourier(n, j) for n in (3, 6) for j in (0, 1)]
             + [build_hamming(6, k) for k in range(7)]
             + [build_coset_sigma1(c) for c in cosets]
             + [build_coset_fourier_otree(c) for c in cosets]
             + [build_knill_tree(), build_cluster1d(4), build_divisibility_tree(5, 3)])
    compiled = 0
    for t in trees:
        try:
            c = compile_tree(t)
        except NonOrthogonalError:
            continue
        compiled += 1
        back = simulate(parse_circuit(format_circuit(c)))
        assert np.max(np.abs(back - simulate(c))) < 1e-12
        assert verify_prepare(t)["fidelity"] > 1 - 1e-9
    assert compiled >= 30


# ---------------------------------------------------------------------------
# reference simulator: every gate as a full 2^w x 2^w matrix


def _full(width: int, wires: tuple[int, ...], mat: np.ndarray) -> np.ndarray:
    """mat on the given wires (first wire most significant), identity elsewhere."""
    order = list(wires) + [w for w in range(width) if w not in wires]
    x = np.arange(1 << width)
    y = np.zeros_like(x)  # x with its wire bits moved into `order`
    for i, w in enumerate(order):
        y |= ((x >> (width - 1 - w)) & 1) << (width - 1 - i)
    return np.kron(mat, np.eye(1 << (width - len(wires))))[np.ix_(y, y)]


def _reference(c: Circuit) -> np.ndarray:
    w = c.width
    x = np.arange(1 << w)

    def bit(wire):
        return (x >> (w - 1 - wire)) & 1

    vec = np.zeros(1 << w, dtype=complex)
    vec[0] = 1

    def run(gates, ok):
        nonlocal vec
        for g in gates:
            if isinstance(g, ControlledSub):
                run(g.body.gates, ok & (bit(g.control) == g.polarity))
                continue
            if isinstance(g, OrNot):
                on = ok & np.any([bit(r) for r in g.register], axis=0)
                op = _full(w, (g.target,), np.array([[0, 1], [1, 0]]))
            elif isinstance(g, Prep):
                on, op = ok, _full(w, (g.qubit,), g.matrix())
            else:
                on, op = ok, _full(w, g.qubits, g.matrix)
            # the gate leaves its controls alone, so it commutes with diag(on)
            vec = (on[:, None] * op + np.diag(~on)) @ vec

    run(c.gates, np.ones(1 << w, dtype=bool))
    return vec


def _random_gates(rng, width, ctrls, depth, fresh, seen):
    """Valid gates under the controls ctrls; preps only on wires still |0>."""
    cw = {w for w, _ in ctrls}
    free = [w for w in range(width) if w not in cw]
    gates = []
    for _ in range(int(rng.integers(1, 6))):
        kind = int(rng.integers(0, 4))
        unset = sorted(set(free) & fresh)
        if kind == 0 and depth < 3:
            if ctrls and rng.random() < 0.4:
                w, pol = ctrls[int(rng.integers(len(ctrls)))]
                if rng.random() < 0.5:
                    pol = 1 - pol
                    seen.add("contradictory csub")
                else:
                    seen.add("repeated csub")
            else:
                w, pol = int(rng.integers(width)), int(rng.integers(2))
            if depth == 2:
                seen.add("csub 3 deep")
            body = _random_gates(rng, width, ctrls + [(w, pol)], depth + 1, fresh, seen)
            gates.append(ControlledSub(w, pol, Circuit(width, 0, body)))
        elif kind == 1 and unset:
            w = unset[int(rng.integers(len(unset)))]
            fresh.discard(w)
            a, b = complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
            s = np.hypot(abs(a), abs(b))
            gates.append(Prep(w, a / s, b / s))
            seen.add("prep under controls" if ctrls else "prep")
        elif kind == 2 and free:
            k = int(rng.integers(1, min(3, len(free)) + 1))
            ws = tuple(int(free[i]) for i in rng.permutation(len(free))[:k])
            fresh.difference_update(ws)
            gates.append(Unitary(ws, random_unitary(rng, 1 << k)))
            seen.add(f"{k}-wire unitary")
        elif kind == 3 and free and width > 1:
            t = free[int(rng.integers(len(free)))]
            others = [w for w in range(width) if w != t]
            r = int(rng.integers(1, len(others) + 1))
            reg = tuple(int(others[i]) for i in rng.permutation(len(others))[:r])
            fresh.discard(t)
            gates.append(OrNot(t, reg))
            seen.update(f"ornot on a polarity-{p} control" for w, p in ctrls if w in reg)
    return gates


def test_simulate_matches_full_matrix_reference():
    seen: set[str] = set()
    for trial in range(120):
        rng = stream(47, trial)
        width = int(rng.integers(1, 8))
        fresh = set(range(width))
        gates: list = []
        while len(gates) < 4:
            gates += _random_gates(rng, width, [], 0, fresh, seen)
        n_data = int(rng.integers(0, width + 1))
        c = Circuit(n_data, width - n_data, gates)
        assert np.max(np.abs(simulate(c) - _reference(c))) < 1e-12, trial
    assert seen >= {"contradictory csub", "repeated csub", "csub 3 deep", "prep",
                    "prep under controls", "1-wire unitary", "2-wire unitary",
                    "3-wire unitary", "ornot on a polarity-0 control",
                    "ornot on a polarity-1 control"}


# ---------------------------------------------------------------------------
# the recursive walkers circuits.py used to have, kept as references


def ref_gate_count(c: Circuit) -> int:
    return sum(ref_gate_count(g.body) if isinstance(g, ControlledSub) else 1 for g in c.gates)


def ref_invert_gates(gates: list) -> list:
    out = []
    for g in reversed(gates):
        if isinstance(g, Prep):
            out.append(Unitary((g.qubit,), g.matrix().conj().T))
        elif isinstance(g, Unitary):
            out.append(Unitary(g.qubits, g.matrix.conj().T))
        elif isinstance(g, OrNot):
            out.append(g)
        else:
            out.append(ControlledSub(g.control, g.polarity, ref_invert(g.body)))
    return out


def ref_invert(c: Circuit) -> Circuit:
    return Circuit(c.n_data, c.n_ancilla, ref_invert_gates(c.gates))


def ref_as_unitary_gates(gates: list) -> list:
    out = []
    for g in gates:
        if isinstance(g, Prep):
            out.append(Unitary((g.qubit,), g.matrix()))
        elif isinstance(g, ControlledSub):
            out.append(ControlledSub(g.control, g.polarity,
                                     Circuit(g.body.n_data, g.body.n_ancilla,
                                             ref_as_unitary_gates(g.body.gates))))
        else:
            out.append(g)
    return out


def ref_compile_tree(tree: StateTree) -> Circuit:
    if classify_tree(tree) == "general":
        raise NonOrthogonalError("the sum recursion needs orthogonal children")
    n = tree.n

    def rec(node, depth):
        if isinstance(node, Leaf):
            return [Prep(node.qubit - 1, node.alpha, node.beta)], 0
        if isinstance(node, Tensor):
            gates, used = [], 0
            for ch in node.children:
                g, u = rec(ch, depth)
                gates += g
                used = max(used, u)
            return gates, used
        alpha, t1, beta, t2 = _binarize(node.children)
        if t2 is None:
            gates, used = rec(t1, depth)
            if alpha != 1:
                w = mask_qubits(qubit_mask(t1))[0] - 1
                gates.append(Unitary((w,), np.array([[alpha, 0], [0, alpha]])))
            return gates, used
        aw = n + depth
        u_gates, u_used = rec(t1, depth + 1)
        v_gates, v_used = rec(t2, depth + 1)
        data_wires = [q - 1 for q in mask_qubits(qubit_mask(node))]
        anc_wires = [n + depth + 1 + i for i in range(max(u_used, v_used))]
        gates = [Prep(aw, alpha, beta),
                 ControlledSub(aw, 1, Circuit(n, 0, v_gates + ref_invert_gates(u_gates))),
                 OrNot(aw, tuple(data_wires + anc_wires))]
        return gates + ref_as_unitary_gates(u_gates), 1 + max(u_used, v_used)

    gates, used = rec(tree.root, 0)
    return Circuit(n, used, gates)


def _ref_apply_gates(t, gates, ctrl, tol):
    for g in gates:
        wires = ((g.control,) if isinstance(g, ControlledSub) else
                 (g.target, *g.register) if isinstance(g, OrNot) else
                 (g.qubit,) if isinstance(g, Prep) else g.qubits)
        for w in wires:
            if not 0 <= w < t.ndim:
                raise ValueError(f"wire {w} is outside 0..{t.ndim - 1}")
        if isinstance(g, ControlledSub):
            if g.polarity not in (0, 1):
                raise ValueError(f"csub polarity {g.polarity} is not 0 or 1")
            _ref_apply_gates(t, g.body.gates, _fix(ctrl, g.control, g.polarity), tol)
            continue
        if isinstance(g, OrNot):
            if g.target in g.register or ctrl[g.target] != _ALL:
                raise ValueError(f"ornot target {g.target} is in its register or a control wire")
            zero = ctrl
            for w in g.register:
                zero = _fix(zero, w, 0)
            keep = t[zero].copy()
            t[ctrl] = np.flip(t[ctrl], g.target)
            t[zero] = keep
            continue
        if isinstance(g, Prep):
            mat = g.matrix()
            in_slice = _mass(t[ctrl])
            leaked = _mass(t[_fix(ctrl, g.qubit, 1)])
            if leaked > tol * max(in_slice, 1e-300):
                raise PrepStateError(
                    f"prep on wire {g.qubit}: |1> mass {leaked:.3e} of {in_slice:.3e}")
        else:
            mat = np.asarray(g.matrix, dtype=complex)
            if len(wires) > 3:
                raise OversizeError("unitary gates are capped at 3 wires")
        if len(set(wires)) != len(wires):
            raise ValueError("gate wires repeat")
        if any(ctrl[w] != _ALL for w in wires):
            raise ValueError("gate acts on one of its control wires")
        k = len(wires)
        moved = np.moveaxis(t[ctrl], wires, range(k))
        block = np.ascontiguousarray(moved).reshape(1 << k, -1)
        moved[...] = (mat @ block).reshape(moved.shape)


def ref_simulate(c: Circuit, max_width: int = 20, tol: float = TOLERANCE) -> np.ndarray:
    total = c.width
    if total > max_width:
        raise OversizeError(f"{total} wires exceed the dense cap {max_width}")
    flat, todo = [], c.gates[::-1]  # the unitarity check sees the gates in pre-order
    while todo:
        g = todo.pop()
        if isinstance(g, ControlledSub):
            todo += g.body.gates[::-1]
        elif not isinstance(g, OrNot):
            flat.append(g)
    _check_unitary(Circuit(c.n_data, c.n_ancilla, flat), tol)
    vec = np.zeros(1 << total, dtype=complex)
    vec[0] = 1.0
    _ref_apply_gates(vec.reshape([2] * total), c.gates, (_ALL,) * total, tol)
    return vec


def ref_format_circuit(c: Circuit) -> str:
    lines = [f"qubits {c.n_data} {c.n_ancilla}"]

    def emit(gates, indent):
        pad = "  " * indent
        for g in gates:
            if isinstance(g, Prep):
                a, b = complex(g.alpha), complex(g.beta)
                lines.append(f"{pad}prep {g.qubit} {fmt_float(a.real)} {fmt_float(a.imag)} "
                             f"{fmt_float(b.real)} {fmt_float(b.imag)}")
            elif isinstance(g, Unitary):
                nums = []
                for row in np.asarray(g.matrix):
                    for z in row:
                        z = complex(z)
                        nums += [fmt_float(z.real), fmt_float(z.imag)]
                qs = " ".join(str(q) for q in g.qubits)
                lines.append(f"{pad}u {len(g.qubits)} {qs} " + " ".join(nums))
            elif isinstance(g, OrNot):
                lines.append(f"{pad}ornot {g.target} " + " ".join(str(q) for q in g.register))
            else:
                lines.append(f"{pad}csub {g.control} {g.polarity} {{")
                emit(g.body.gates, indent + 1)
                lines.append(f"{pad}}}")

    emit(c.gates, 0)
    return "\n".join(lines) + "\n"


def ref_parse_circuit(text: str) -> Circuit:
    raw = [ln.split(";")[0].strip() for ln in text.splitlines()]
    rows = [(i + 1, ln) for i, ln in enumerate(raw) if ln]
    if not rows:
        raise ParseError("empty circuit text")
    ln_no, head = rows[0]
    parts = head.split()
    if len(parts) != 3 or parts[0] != "qubits":
        raise ParseError(f"expected 'qubits D A', got {head!r}", ln_no, 1)
    try:
        n_data, n_anc = int(parts[1]), int(parts[2])
    except ValueError:
        raise ParseError(f"bad qubit counts in {head!r}", ln_no, 1) from None
    cols = [m.start() + 1 for m in re.finditer(r"\S+", text.splitlines()[ln_no - 1])]
    for count, col in zip((n_data, n_anc), cols[1:]):
        if count < 0:
            raise ParseError(f"qubit count {count} is negative", ln_no, col)
    pos = 1

    def parse_gates():
        nonlocal pos
        gates = []
        while pos < len(rows):
            ln_no, ln = rows[pos]
            if ln == "}":
                return gates
            pos += 1
            toks = ln.split()
            try:
                if toks[0] == "prep" and len(toks) == 6:
                    nums = [float(t) for t in toks[2:]]
                    gates.append(Prep(int(toks[1]), complex(nums[0], nums[1]),
                                      complex(nums[2], nums[3])))
                elif toks[0] == "u":
                    k = int(toks[1])
                    qs = tuple(int(t) for t in toks[2:2 + k])
                    nums = [float(t) for t in toks[2 + k:]]
                    dim = 1 << k
                    if len(nums) != 2 * dim * dim:
                        raise ValueError("matrix entry count")
                    gates.append(Unitary(qs, np.array([complex(nums[2 * i], nums[2 * i + 1])
                                                       for i in range(dim * dim)]).reshape(dim, dim)))
                elif toks[0] == "ornot" and len(toks) >= 3:
                    gates.append(OrNot(int(toks[1]), tuple(int(t) for t in toks[2:])))
                elif toks[0] == "csub" and len(toks) == 4 and toks[3] == "{":
                    control, pol = int(toks[1]), int(toks[2])
                    body = parse_gates()
                    if pos >= len(rows) or rows[pos][1] != "}":
                        raise ParseError("unterminated csub block", ln_no, 1)
                    pos += 1
                    gates.append(ControlledSub(control, pol, Circuit(n_data, 0, body)))
                else:
                    raise ValueError("unknown gate")
            except ParseError:
                raise
            except (ValueError, IndexError):
                raise ParseError(f"bad gate line {ln!r}", ln_no, 1) from None
        return gates

    gates = parse_gates()
    if pos != len(rows):
        raise ParseError(f"unexpected {rows[pos][1]!r}", rows[pos][0], 1)
    return Circuit(n_data, n_anc, gates)


def _same_gates(a: list, b: list) -> bool:
    """Equal gate lists: same types, fields and csub nesting, matrices by np.array_equal."""
    todo = [(a, b)]
    while todo:
        xs, ys = todo.pop()
        if len(xs) != len(ys):
            return False
        for x, y in zip(xs, ys):
            if type(x) is not type(y):
                return False
            if isinstance(x, ControlledSub):
                if ((x.control, x.polarity, x.body.n_data, x.body.n_ancilla)
                        != (y.control, y.polarity, y.body.n_data, y.body.n_ancilla)):
                    return False
                todo.append((x.body.gates, y.body.gates))
            elif isinstance(x, Unitary):
                if x.qubits != y.qubits or not np.array_equal(x.matrix, y.matrix, equal_nan=True):
                    return False
            elif x != y:
                return False
    return True


def _outcome(fn, *args):
    """fn's result, or the type and message of the error it raised first."""
    try:
        return fn(*args)
    except (StateTreesError, ValueError) as e:
        return type(e), str(e)


def _random_orthogonal_node(rng, qubits: list[int]):
    """A random node whose + vertices sum distinct basis states of one or two
    selector qubits, each tensored with a random node on the other qubits."""
    if len(qubits) == 1 or rng.random() < 0.2:
        if len(qubits) == 1:
            a, b = complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
            s = np.hypot(abs(a), abs(b))
            return Leaf(qubits[0], a / s, b / s)
        cut = int(rng.integers(1, len(qubits)))
        perm = [qubits[i] for i in rng.permutation(len(qubits))]
        return Tensor((_random_orthogonal_node(rng, sorted(perm[:cut])),
                       _random_orthogonal_node(rng, sorted(perm[cut:]))))
    m = min(len(qubits), int(rng.integers(1, 3)))
    perm = [qubits[i] for i in rng.permutation(len(qubits))]
    sel, rest = sorted(perm[:m]), sorted(perm[m:])
    k = int(rng.integers(1, (1 << m) + 1))
    kids = []
    for bits in rng.permutation(1 << m)[:k]:
        part = basis_product(sel, int(bits))
        kids.append(Tensor((part, _random_orthogonal_node(rng, rest))) if rest else part)
    coeffs = rng.normal(size=k) + 1j * rng.normal(size=k)
    if k > 2 and rng.random() < 0.3:
        coeffs[int(rng.integers(k))] = 0  # a zero-weight member in one half
    coeffs = coeffs / np.linalg.norm(coeffs)
    return Plus(tuple(zip(map(complex, coeffs), kids)))


def _oracle_trees():
    cosets = [Coset(a, a.mul_vec(t)) for t, a in
              enumerate(random_bitmatrix(1 + t % 4, 6, 77, t) for t in range(6))]
    yield from ([build_cat(n) for n in (2, 5, 8)]
                + [build_parity(n, j) for n in (3, 6) for j in (0, 1)]
                + [build_parity_fourier(n, j) for n in (3, 6) for j in (0, 1)]
                + [build_hamming(6, k) for k in range(7)]
                + [build_coset_sigma1(c) for c in cosets]
                + [build_coset_fourier_otree(c) for c in cosets]
                + [build_knill_tree(), build_cluster1d(4), build_divisibility_tree(5, 3)])
    for trial in range(60):
        rng = stream(53, trial)
        n = int(rng.integers(1, 7))
        yield StateTree(n, _random_orthogonal_node(rng, list(range(1, n + 1))))
    yield StateTree(1, Plus(((0.0, Leaf(1, 1.0, 0.0)),)))  # all weight zero
    # structurally invalid: the + children cover different qubits
    mixed = Plus(((0.6, Leaf(2, 1.0, 0.0)), (0.8, Leaf(1, 0.0, 1.0))))
    yield StateTree(2, mixed)
    yield StateTree(2, Plus(((1j, mixed),)))


def _faulty(rng, c: Circuit) -> Circuit:
    """c with one seeded fault planted at the top level or in a csub body."""
    gates = c.gates
    subs = [g for g in gates if isinstance(g, ControlledSub)]
    if subs and rng.random() < 0.5:
        gates = subs[int(rng.integers(len(subs)))].body.gates
    w = c.width
    fault = [Prep(w, 1, 0), Prep(-1, 1, 0), Unitary((0,), np.eye(2) * 1.5),
             Prep(0, 1, 1), Prep(0, 0, 1), ControlledSub(0, 2, Circuit(w, 0, [])),
             OrNot(0, (0,)), Unitary((0, 0), np.eye(4)), Unitary((0, 1, 2, 3), np.eye(16)),
             Unitary((0,), np.array([[np.nan, 0], [0, 1]]))][int(rng.integers(10))]
    gates.insert(int(rng.integers(len(gates) + 1)), fault)
    return c


def _oracle_circuits():
    for trial in range(120):  # as in test_simulate_matches_full_matrix_reference
        rng = stream(47, trial)
        width = int(rng.integers(1, 8))
        fresh = set(range(width))
        gates: list = []
        while len(gates) < 4:
            gates += _random_gates(rng, width, [], 0, fresh, set())
        n_data = int(rng.integers(0, width + 1))
        yield Circuit(n_data, width - n_data, gates)
    for trial in range(60):
        rng = stream(59, trial)
        width = int(rng.integers(1, 8))
        gates = []
        while len(gates) < 4:
            gates += _random_gates(rng, width, [], 0, set(range(width)), set())
        yield _faulty(rng, Circuit(width, 0, gates))
    for t in _oracle_trees():
        try:
            yield compile_tree(t)
        except (NonOrthogonalError, InvalidTreeError):
            pass


def test_compile_agrees_with_the_recursive_reference():
    compiled, refused = 0, []
    for t in _oracle_trees():
        got, want = _outcome(compile_tree, t), _outcome(ref_compile_tree, t)
        if isinstance(want, Circuit):
            assert (got.n_data, got.n_ancilla) == (want.n_data, want.n_ancilla)
            assert _same_gates(got.gates, want.gates)
            compiled += 1
        else:
            assert got == want
            if got[0] is InvalidTreeError:
                refused.append(got[1])
    assert compiled >= 85
    # the all-zero + and the two mixed-qubit trees that end _oracle_trees
    assert refused == (["plus vertex with all coefficients zero"]
                       + ["plus children cover different qubit sets"] * 2)


def test_circuit_walks_agree_with_their_recursive_references():
    errors = simulated = 0
    for c in _oracle_circuits():
        assert gate_count(c) == ref_gate_count(c)
        text = format_circuit(c)
        assert text == ref_format_circuit(c)
        parsed = parse_circuit(text)
        assert _same_gates(parsed.gates, ref_parse_circuit(text).gates)
        assert _same_gates(_relaxed(c.gates, inverse=True), ref_invert(c).gates)
        assert _same_gates(_relaxed(c.gates, inverse=False), ref_as_unitary_gates(c.gates))
        got, want = _outcome(simulate, c), _outcome(ref_simulate, c)
        if isinstance(want, np.ndarray):
            assert np.array_equal(got, want)
            simulated += 1
        else:
            assert got == want
            errors += 1
    assert simulated >= 200 and errors >= 50


def _broken_texts():
    """Circuit texts with one seeded defect: a line dropped, doubled or cut short, or a stray brace."""
    for i, c in enumerate(_oracle_circuits()):
        if i % 3:
            continue
        rng = stream(61, i)
        lines = format_circuit(c).splitlines(keepends=True)
        at = int(rng.integers(1, len(lines) + 1))
        kind = int(rng.integers(5))
        if kind == 0 and at < len(lines):
            del lines[at]
        elif kind == 1:
            lines.insert(at, "}\n")
        elif kind == 2:
            lines.insert(at, "csub 0 1 {\n")
        elif kind == 3 and at < len(lines):
            lines[at] = lines[at].rsplit(" ", 1)[0] + "\n"
        else:
            lines.insert(at, "csub 0 1 {  ; open\ncsub 1 0 {\n")
        yield "".join(lines)


def test_circuit_parse_errors_agree_with_the_recursive_reference():
    kinds = set()
    for text in _broken_texts():
        got, want = _outcome(parse_circuit, text), _outcome(ref_parse_circuit, text)
        if isinstance(want, Circuit):
            assert _same_gates(got.gates, want.gates)
        else:
            assert got == want
            kinds.add(want[1].split(": ", 1)[1].split(" ", 1)[0])
    assert kinds == {"unterminated", "unexpected", "bad"}


# ---------------------------------------------------------------------------
# simulate's gathered kernel against the whole-block kernel
# _ref_apply_gates: the same values and listings, the same errors.  An
# exact zero's sign can differ: the dense kernel's BLAS call turns some
# all-zero columns into -0.0 entries, and fmt_float prints both zeros as 0.


def _compiled_corpus():
    """Every compilable builder tree of width <= 14 (cluster1d does not
    compile, nor divisibility for p = 3, 5, 7), one per family at width 16,
    and seeded coset circuits."""
    trees = ([build_cat(n) for n in range(1, 14)]
             + [build_parity(n, j) for n in range(1, 11) for j in (0, 1)]
             + [build_parity_fourier(n, j) for n in range(1, 14) for j in (0, 1)]
             + [build_hamming(n, k) for n in range(1, 10) for k in range(n + 1)]
             + [build_divisibility_tree(n, 2) for n in range(2, 14)]
             + [build_knill_tree()])
    for k, n in ((1, 6), (2, 7), (3, 8), (5, 7), (5, 8)):
        a = random_bitmatrix(k, n, 71, n)
        coset = Coset(a, a.mul_vec(k))
        trees += [build_coset_sigma1(coset), build_coset_fourier_otree(coset)]
    for c in map(compile_tree, trees):
        if c.width <= 14:
            yield c
    for t in (build_cat(15), build_parity(12, 1), build_parity_fourier(15, 0),
              build_hamming(10, 3), build_divisibility_tree(15, 2)):
        c = compile_tree(t)
        assert c.width == 16
        yield c


def test_simulate_matches_the_dense_kernel_on_compiled_circuits(monkeypatch):
    default = circuits._DENSE_SHIFT
    done = gathered = 0
    for c in _compiled_corpus():
        want = ref_simulate(c)
        texts = c.width <= 14 and (format_amplitudes(want), format_amplitudes(want, True, TOLERANCE))
        # shift 0 never promotes: every gate of a narrow circuit is gathered
        for shift in (default, 0) if c.width <= 12 else (default,):
            monkeypatch.setattr(circuits, "_DENSE_SHIFT", shift)
            got = simulate(c)
            assert np.array_equal(got, want), (c.width, shift)
            if texts:
                assert (format_amplitudes(got), format_amplitudes(got, True, TOLERANCE)) == texts
            gathered += shift == 0
        done += 1
    assert (done, gathered) == (136, 109)


def test_the_gathered_path_agrees_with_the_dense_kernel_on_the_oracle_circuits(monkeypatch):
    monkeypatch.setattr(circuits, "_DENSE_SHIFT", 0)  # never promote
    errors: list[str] = []
    for c in _oracle_circuits():
        got, want = _outcome(simulate, c), _outcome(ref_simulate, c)
        if isinstance(want, np.ndarray):
            assert np.array_equal(got, want)
        else:
            assert got == want
            errors.append(want[0].__name__)
    assert errors.count("PrepStateError") >= 5 and len(errors) >= 50


def _live_column_cases():
    """A k-wire u under 0..3 csub levels on a width-6 state whose block has
    N = 8, 4, 2 or 1 columns, m of them live, in every wire order."""
    rng = stream(71, 0)

    def prep(w):
        a, b = complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
        s = np.hypot(abs(a), abs(b))
        return Prep(w, a / s, b / s)

    for k in (1, 2, 3):
        for levels in range(4):
            free = list(range(3 + levels, 6))  # wires 3.. are the controls
            for m in (1, 2, 3, 4):
                if m > 1 << len(free) or (m == 3 and len(free) < 2):
                    continue
                gates = [prep(w) for w in range(3, 3 + levels)] + [prep(0)]
                if m in (2, 4):
                    gates += [prep(w) for w in free[:m // 2]]
                elif m == 3:  # columns 00, 10, 11 of the first two free wires
                    gates += [prep(free[0]), ControlledSub(free[0], 1, Circuit(6, 0, [prep(free[1])]))]
                for wires in ((0, 1, 2)[:k], (2, 0, 1)[:k], (1, 2, 0)[:k]):
                    body = [Unitary(wires, random_unitary(rng, 1 << k))]
                    for w in range(3 + levels - 1, 2, -1):
                        body = [ControlledSub(w, 1, Circuit(6, 0, body))]
                    yield 1 << len(free), m, Circuit(6, 0, gates + body)


def test_the_gathered_path_handles_blocks_of_every_column_count(monkeypatch):
    monkeypatch.setattr(circuits, "_DENSE_SHIFT", 0)
    seen = set()
    for n_cols, live, c in _live_column_cases():
        assert np.array_equal(simulate(c), ref_simulate(c)), (n_cols, live)
        seen.add((n_cols, live))
    assert seen == {(8, 1), (8, 2), (8, 3), (8, 4), (4, 1), (4, 2), (4, 3), (4, 4),
                    (2, 1), (2, 2), (1, 1)}


def test_a_circuit_that_crosses_the_promotion_threshold_mid_walk():
    """The support passes 1/2^_DENSE_SHIFT of the vector inside a csub body;
    the rest of the body and of the circuit runs on whole-block views."""
    rng = stream(73, 0)
    width = 10
    limit = (1 << width) >> circuits._DENSE_SHIFT
    inner = [Prep(w, 0.6, 0.8j) for w in range(1, 9)]
    inner += [Unitary((2, 5), random_unitary(rng, 4)), OrNot(0, (3, 4)),
              ControlledSub(1, 0, Circuit(width, 0, [Unitary((6, 7, 8), random_unitary(rng, 8))]))]
    head = [Prep(9, 0.8, -0.6)]
    c = Circuit(width, 0, head + [ControlledSub(9, 1, Circuit(width, 0, inner)),
                                  Unitary((9, 0), random_unitary(rng, 4))])
    before = Circuit(width, 0, head + [ControlledSub(9, 1, Circuit(width, 0, inner[:5]))])
    assert np.count_nonzero(simulate(before)) <= limit < np.count_nonzero(simulate(c))
    assert np.array_equal(simulate(c), ref_simulate(c))


def test_contradictory_controls_and_prep_leaks_under_the_gathered_path(monkeypatch):
    monkeypatch.setattr(circuits, "_DENSE_SHIFT", 0)
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    nothing = ControlledSub(0, 1, Circuit(3, 0, [ControlledSub(0, 0, Circuit(3, 0, [
        Unitary((1,), h), OrNot(2, (1,)), Prep(1, 0, 1)]))]))
    c = Circuit(3, 0, [Prep(0, 0.6, 0.8), nothing, Unitary((2,), h)])
    assert np.array_equal(simulate(c), ref_simulate(c))
    assert np.array_equal(simulate(c), simulate(Circuit(3, 0, [Prep(0, 0.6, 0.8), Unitary((2,), h)])))
    for leak in ([Prep(0, 0.6, 0.8), Prep(0, 1, 0)],
                 [Prep(0, 0.6, 0.8), Unitary((1,), h), ControlledSub(1, 1, Circuit(3, 0, [Prep(0, 0, 1)]))]):
        got, want = _outcome(simulate, Circuit(3, 0, leak)), _outcome(ref_simulate, Circuit(3, 0, leak))
        assert got == want and got[0] is PrepStateError
    assert got[1] == "prep on wire 0: |1> mass 3.200e-01 of 5.000e-01"


def test_phase_gates_on_a_zero_wire_state():
    c = parse_circuit("qubits 0 0\nu 0 0 1\nu 0 0 1\n")  # the first is gathered, the second not
    assert simulate(c).tolist() == [-1]


def test_blas_gives_a_gathered_column_the_bits_of_the_whole_block_product():
    """simulate's premise, on the BLAS in use: a column of a 2^k x N product
    has the same bits in a product of the gathered columns padded with zero
    columns to a multiple of 4, or, when N < 4, in the whole block."""
    rng = stream(79, 0)
    for k in (1, 2, 3):
        for log_n in range(0, 18 - k, 2):
            n = 1 << log_n
            mat = random_unitary(rng, 1 << k)
            block = rng.normal(size=(1 << k, n)) + 1j * rng.normal(size=(1 << k, n))
            for m in sorted({1, 2, 3, 5, 6, 7, n // 2 + 1, n} & set(range(1, n + 1))):
                u = mat if m % 2 else mat.conj().T  # C and Fortran order, as _relaxed makes
                cols = np.sort(rng.permutation(n)[:m]) if n >= 4 else np.arange(n)
                x = np.zeros((1 << k, -(-len(cols) // 4) * 4 if n >= 4 else n), dtype=complex)
                x[:, :len(cols)] = block[:, cols]
                assert np.array_equal((u @ x)[:, :len(cols)], (u @ block)[:, cols]), (
                    f"the BLAS in use gives a column of {len(cols)} gathered from a {1 << k} x {n} "
                    "product other bits than the whole product: simulate's padding rule (zero "
                    "columns to a multiple of 4, whole blocks under 4 columns) no longer holds")
