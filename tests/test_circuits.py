"""Circuit compiler and dense simulator."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import random_unitary
from statetrees.builders import (build_cat, build_cluster1d, build_coset_fourier_otree,
                                 build_coset_sigma1, build_divisibility_tree,
                                 build_hamming, build_knill_tree, build_parity,
                                 build_parity_fourier)
from statetrees.circuits import (Circuit, ControlledSub, OrNot, Prep,
                                 PrepStateError, Unitary, compile_tree,
                                 format_circuit, gate_count, invert,
                                 parse_circuit, simulate, verify_prepare)
from statetrees.errors import NonOrthogonalError, NonUnitaryError, OversizeError, ParseError
from statetrees.gf2 import BitMatrix, Coset, random_bitmatrix
from statetrees.rng import stream
from statetrees.trees import Leaf, StateTree, Tensor


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
        v = simulate(Circuit(4, 0, c.gates + invert(c).gates))
        assert abs(v[0] - 1) < 1e-9


def test_invert_involution_matrices():
    c = compile_tree(build_cat(3))
    cc = invert(invert(c))

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
