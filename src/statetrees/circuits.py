"""Compile orthogonal state trees into state-preparation circuits.

The recursion: a tensor vertex concatenates the child circuits on their
disjoint wires; a two-child sum alpha |psi1> + beta |psi2> preps a fresh
ancilla to alpha|0> + beta|1>, applies U^-1 V to the register under
ancilla control (U, V the child circuits), resets the ancilla with a
NOT conditioned on the OR of the register, and finishes by applying U.
The reset works because U^-1 V |0..0> has no overlap with |0..0>
exactly when the children are orthogonal.  One ancilla per nesting
level of sum vertices; the pool is reused across siblings.

Wire layout: data qubit q sits on wire q-1, ancillas follow; wire 0 is
the most significant bit of the simulator index, so a simulated vector
equals evaluate(tree) tensor |0..0> on the ancillas when all is well.

The OR register of a sum vertex covers the child circuits' ancilla
wires as well as their data wires: the child blocks restore their own
ancillas only on the intended input track, so the reset must watch the
whole section the conditioned block may touch.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Iterator, Union

import numpy as np

from .dsl import _MAX_INDENT, fmt_float
from .errors import (InvalidTreeError, NonOrthogonalError, NonUnitaryError, OversizeError,
                     ParseError, StateTreesError)
from .trees import (MAX_QUBITS, Leaf, Node, Plus, StateTree, Tensor, TOLERANCE, _union,
                    classify_tree, evaluate, mask_qubits)


class PrepStateError(StateTreesError):
    """A prep gate hit a qubit that was not in |0>."""

    code = "prep-nonzero"


@dataclass(frozen=True)
class Prep:
    qubit: int
    alpha: complex
    beta: complex

    def matrix(self) -> np.ndarray:
        a, b = complex(self.alpha), complex(self.beta)
        return np.array([[a, -b.conjugate()], [b, a.conjugate()]])


@dataclass(frozen=True, eq=False)
class Unitary:
    qubits: tuple[int, ...]
    matrix: np.ndarray


@dataclass(frozen=True)
class OrNot:
    target: int
    register: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class ControlledSub:
    control: int
    polarity: int
    body: "Circuit"


Gate = Union[Prep, Unitary, OrNot, ControlledSub]


@dataclass(eq=False)
class Circuit:
    n_data: int
    n_ancilla: int
    gates: list[Gate] = field(default_factory=list)

    @property
    def width(self) -> int:
        return self.n_data + self.n_ancilla


def _walk(gates: list[Gate]) -> Iterator[Gate | None]:
    """Pre-order walk on an explicit stack: every gate, and None where a csub body ends."""
    stack = [iter(gates)]
    while stack:
        for g in stack[-1]:
            yield g
            if isinstance(g, ControlledSub):
                stack.append(iter(g.body.gates))
                break
        else:
            stack.pop()
            if stack:
                yield None


def gate_count(c: Circuit) -> int:
    """Number of elementary gates, controlled bodies counted through."""
    return sum(g is not None and not isinstance(g, ControlledSub) for g in _walk(c.gates))


# ---------------------------------------------------------------------------
# compilation


def _binarize(children: tuple[tuple[complex, Node], ...]) -> tuple[complex, Node, complex, Node | None]:
    """(alpha, T1, beta, T2) for a balanced two-way split of a sum vertex.

    Halving keeps the internal fan-in-2 nesting (and so the ancilla
    pool) logarithmic in the original fan-in.
    """

    def side(part: tuple[tuple[complex, Node], ...]) -> tuple[complex, Node | None]:
        w = math.sqrt(sum(abs(c) ** 2 for c, _ in part))
        if w == 0.0:
            return 0.0, None
        if len(part) == 1:
            return part[0]
        return w, Plus(tuple((c / w, t) for c, t in part))

    half = (len(children) + 1) // 2
    a, t1 = side(children[:half])
    b, t2 = side(children[half:])
    if t1 is None:  # all weight sits in the back half
        if t2 is None:
            raise InvalidTreeError("plus vertex with all coefficients zero")
        return b, t2, 0.0, None
    return a, t1, b, t2


def _relaxed(gates: list[Gate], inverse: bool) -> list[Gate]:
    """The gates with each prep relaxed to the unitary it extends, as a prep
    block replayed on a register no longer |0..0> must act; with inverse,
    the inverse of that: each gate list reversed when its block closes and
    each matrix conjugate-transposed."""
    blocks: list[tuple[ControlledSub | None, list[Gate]]] = [(None, [])]  # open, innermost last
    for g in _walk(gates):
        if isinstance(g, ControlledSub):
            blocks.append((g, []))
            continue
        if g is None:
            sub, body = blocks.pop()
            if inverse:
                body.reverse()
            g = ControlledSub(sub.control, sub.polarity,
                              Circuit(sub.body.n_data, sub.body.n_ancilla, body))
        elif isinstance(g, Prep):
            g = Unitary((g.qubit,), g.matrix().conj().T if inverse else g.matrix())
        elif isinstance(g, Unitary) and inverse:
            g = Unitary(g.qubits, g.matrix.conj().T)
        blocks[-1][1].append(g)
    out = blocks[0][1]
    return out[::-1] if inverse else out


def compile_tree(tree: StateTree) -> Circuit:
    """Circuit preparing evaluate(tree) from |0..0>, per the sum recursion.

    Requires the tree to classify as orthogonal or manifestly
    orthogonal; the ancilla count equals the deepest nesting of sum
    vertices (with fan-in folded to 2).  Compiled in post-order on an explicit
    stack: each vertex's (gates, ancilla levels used below, qubit mask) goes up.
    """
    if classify_tree(tree) == "general":
        raise NonOrthogonalError("the sum recursion needs orthogonal children")
    n = tree.n
    wires: list[int] = []  # shared ints: the ornot registers of a deep tree hold O(depth^2) wires

    def frame(node: Tensor | Plus, depth: int) -> tuple:
        """(how the parts combine, their ancilla depth, unread parts, their results)."""
        if isinstance(node, Tensor):
            return None, depth, iter(node.children), []
        alpha, t1, beta, t2 = _binarize(node.children)
        if t2 is None:
            return (alpha,), depth, iter((t1,)), []
        return (alpha, beta, n + depth), depth + 1, iter((t1, t2)), []

    def combine(how: tuple | None, kids: list) -> tuple[list[Gate], int, int]:
        if how is None:  # a tensor: the parts side by side
            return ([g for gates, _, _ in kids for g in gates],
                    max((used for _, used, _ in kids), default=0), _union(m for _, _, m in kids))
        if len(how) == 1:
            gates, used, mask = kids[0]
            if how[0] != 1:  # on the lowest qubit
                gates.append(Unitary((mask_qubits(mask)[0] - 1,), np.array([[how[0], 0], [0, how[0]]])))
            return gates, used, mask
        alpha, beta, aw = how
        (u_gates, u_used, u_mask), (v_gates, v_used, v_mask) = kids
        below = max(u_used, v_used)
        wires.extend(range(len(wires), aw + 1 + below))
        data_wires = [q - 1 for q in mask_qubits(u_mask | v_mask)]
        return [
            Prep(aw, alpha, beta),
            ControlledSub(aw, 1, Circuit(n, 0, v_gates + _relaxed(u_gates, inverse=True))),
            OrNot(aw, tuple(data_wires + wires[aw + 1:aw + 1 + below])),
            # replaying U on the superposition: preps act as plain unitaries
            *_relaxed(u_gates, inverse=False),
        ], 1 + below, u_mask | v_mask

    stack = [(None, 0, iter((tree.root,)), [])]  # the root, as the one part of a tensor
    while True:
        how, depth, unread, kids = stack[-1]
        for node in unread:
            if isinstance(node, Leaf):
                kids.append(([Prep(node.qubit - 1, node.alpha, node.beta)], 0, 1 << (node.qubit - 1)))
            else:
                stack.append(frame(node, depth))
                break
        else:
            stack.pop()
            done = combine(how, kids)
            if not stack:
                return Circuit(n, done[1], done[0])
            stack[-1][3].append(done)


# ---------------------------------------------------------------------------
# simulation.  The state is a dense vector; as a tensor it has one length-2
# axis per wire, wire w on axis w and on bit width-1-w of the flat index.
# Controls are a tuple of per-wire slices, so t[ctrl] is a view of the
# controlled block that keeps every axis.
#
# A compiled circuit keeps most amplitudes zero through most of its gates:
# cat(16) never holds more than 2 nonzero of its 2^17.  So the walk also
# keeps the support, an int64 array of the flat indices that may be nonzero
# (every index outside it holds 0), starting at {0}.  A gate gathers only
# the live columns of its block, those with a support entry in one of its
# 2^k rows, as a 2^k x m matrix, multiplies it and scatters the result back;
# the support becomes the untouched entries plus the nonzero outputs.
#
# The gathered product must give each live column the bits the whole-block
# product gives it.  OpenBLAS runs the column dimension in groups of 4, the
# last N mod 4 columns take another path, and a one-column product is a
# gemv.  A block has N = 2^free columns, so with N >= 4 every column is in a
# full group: the gathered matrix is padded with zero columns to a multiple
# of 4.  A block of N < 4 columns is gathered whole, making the whole-block
# call.  tests/test_circuits.py checks this premise on the BLAS in use.  A
# dead column keeps its zeros, where the whole-block product can write -0.0;
# the two zeros compare and print alike.
#
# Once the support holds more than 1/2^_DENSE_SHIFT of the vector, it is
# dropped and the rest of the circuit runs on whole-block views, which copy
# a nearly dense block faster than a gather does.

_ALL = slice(None)
_DENSE_SHIFT = 4


def _fix(ctrl: tuple[slice, ...], wire: int, bit: int) -> tuple[slice, ...]:
    """ctrl narrowed to wire == bit; empty where ctrl already fixes the other bit."""
    s = slice(bit, bit + 1) if bit in range(2)[ctrl[wire]] else slice(0, 0)
    return ctrl[:wire] + (s,) + ctrl[wire + 1:]


def _mass(block: np.ndarray) -> float:
    # one 1-d sum in flat index order, whatever the view's strides
    return float(np.sum(np.abs(block.ravel()) ** 2))


def _apply_gates(t: np.ndarray, gates: list[Gate], tol: float) -> None:
    width = t.ndim
    flat = t.reshape(-1)
    support: np.ndarray | None = np.zeros(1, dtype=np.int64)  # None once dense
    # the controls of each open csub body, innermost last: the slices, and
    # (mask, value) with flat index i in the block iff i & mask == value
    # (value -1 for an empty block)
    ctrls = [((_ALL,) * width, 0, 0)]
    for g in _walk(gates):
        if g is None:
            ctrls.pop()
            continue
        ctrl, mask, value = ctrls[-1]
        wires = ((g.control,) if isinstance(g, ControlledSub) else
                 (g.target, *g.register) if isinstance(g, OrNot) else
                 (g.qubit,) if isinstance(g, Prep) else g.qubits)
        for w in wires:  # a negative index would silently pick a wire from the end
            if not 0 <= w < width:
                raise ValueError(f"wire {w} is outside 0..{width - 1}")
        bits = [1 << (width - 1 - w) for w in wires]
        if isinstance(g, ControlledSub):
            if g.polarity not in (0, 1):
                raise ValueError(f"csub polarity {g.polarity} is not 0 or 1")
            inner = _fix(ctrl, g.control, g.polarity)
            empty = inner[g.control] == slice(0, 0)
            ctrls.append((inner, mask | bits[0], -1 if empty else value | bits[0] * g.polarity))
            continue
        if support is not None:
            inside = (support & mask) == value
            sel, rest = support[inside], support[~inside]
        if isinstance(g, OrNot):
            if g.target in g.register or ctrl[g.target] != _ALL:
                raise ValueError(f"ornot target {g.target} is in its register or a control wire")
            if support is None:
                zero = ctrl
                for w in g.register:
                    zero = _fix(zero, w, 0)
                keep = t[zero].copy()
                t[ctrl] = np.flip(t[ctrl], g.target)
                t[zero] = keep
                continue
            # swap each pair (i, i ^ target) whose register is not all zero
            hit = (sel & sum(set(bits[1:]))) != 0
            pairs = np.concatenate((sel[hit], sel[hit] ^ bits[0]))
            flat[pairs] = flat[pairs ^ bits[0]]
            support = np.concatenate((rest, sel[~hit], sel[hit] ^ bits[0]))
            continue
        if isinstance(g, Prep):
            mat = g.matrix()
            # no |1> amplitude passes, as _check_unitary made tol >= 0; any is
            # tested, and shown, with the sums over the whole block
            if support is None or flat[sel[(sel & bits[0]) != 0]].any():
                in_slice, leaked = _mass(t[ctrl]), _mass(t[_fix(ctrl, g.qubit, 1)])
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
        if support is None:  # `...` keeps the block of a 0-wire state a view, not a scalar
            moved = np.moveaxis(t[ctrl + (...,)], wires, range(k))
            # C order keeps `@` on one BLAS path for every view layout
            block = np.ascontiguousarray(moved).reshape(1 << k, -1)
            moved[...] = (mat @ block).reshape(moved.shape)
            continue
        if not len(sel):
            continue
        gate = sum(bits)
        if width - k - mask.bit_count() < 2:  # the block's one or two columns
            cols = np.unique([value, value | ((1 << width) - 1) & ~(mask | gate)])
            padded = len(cols)
        else:
            cols = np.unique(sel & ~gate)
            padded = -(-len(cols) // 4) * 4
        rows = np.zeros(1, dtype=np.int64)  # row r sets wires[i] where bit k-1-i of r is set
        for b in reversed(bits):
            rows = np.concatenate((rows, rows | b))
        at = rows[:, None] | cols
        x = np.zeros((1 << k, padded), dtype=complex)
        x[:, :len(cols)] = flat[at]
        y = (mat @ x)[:, :len(cols)]
        flat[at] = y
        support = np.concatenate((rest, at[y != 0]))
        if len(support) > len(flat) >> _DENSE_SHIFT:
            support = None


def _check_unitary(c: Circuit, tol: float) -> None:
    """NonUnitaryError for the first prep or u gate that is not unitary within tol.

    The u matrices are tested in one stacked product per matrix shape: a
    test per gate would cost more than simulating a compiled circuit with
    thousands of small gates.  NaN entries fail every test.
    """
    gates = [g for g in _walk(c.gates) if isinstance(g, (Prep, Unitary))]
    faults: list[tuple[int, str]] = []
    by_shape: dict[tuple[int, ...], list[int]] = {}
    for pos, g in enumerate(gates):
        if isinstance(g, Prep):
            norm = abs(complex(g.alpha)) ** 2 + abs(complex(g.beta)) ** 2
            if not abs(norm - 1) <= tol:
                faults.append((pos, f"prep on wire {g.qubit}: |alpha|^2 + |beta|^2 = {norm!r}"))
        else:
            by_shape.setdefault(np.shape(g.matrix), []).append(pos)
    for shape, where in by_shape.items():
        u = np.array([gates[pos].matrix for pos in where], dtype=complex)
        err = np.abs(np.einsum("bij,bkj->bik", u, u.conj()) - np.eye(shape[0])).max(axis=(1, 2))
        bad = np.flatnonzero(~(err <= tol))
        if len(bad):
            pos = where[bad[0]]
            faults.append((pos, f"u on wires {gates[pos].qubits}: max |U U^+ - I| = {err[bad[0]]:.3e}"))
    if faults:
        raise NonUnitaryError(min(faults)[1])


def simulate(c: Circuit, tol: float = TOLERANCE) -> np.ndarray:
    """Dense state vector after running the circuit on |0..0>.

    Each gate touches only the columns of its block that hold a nonzero
    amplitude, and gives them the bits of a whole-block product (see above)."""
    total = c.width
    if total > MAX_QUBITS:
        raise OversizeError(f"{total} wires exceed the dense cap {MAX_QUBITS}")
    _check_unitary(c, tol)
    vec = np.zeros(1 << total, dtype=complex)
    vec[0] = 1.0
    _apply_gates(vec.reshape([2] * total), c.gates, tol)
    return vec


def verify_prepare(tree: StateTree) -> dict:
    """Compile, simulate, and compare against the tree's own evaluation."""
    circ = compile_tree(tree)
    sim = simulate(circ)
    target = np.zeros(1 << circ.width, dtype=complex)
    target[np.arange(1 << tree.n) << circ.n_ancilla] = evaluate(tree)
    fid = float(abs(np.vdot(sim, target)) ** 2)
    return {
        "n": tree.n,
        "ancillas": circ.n_ancilla,
        "gates": gate_count(circ),
        "fidelity": fid,
    }


# ---------------------------------------------------------------------------
# text format


def format_circuit(c: Circuit) -> str:
    """Circuit text; csub bodies are indented two spaces a level, up to dsl._MAX_INDENT."""
    lines = [f"qubits {c.n_data} {c.n_ancilla}"]
    level = 0
    for g in _walk(c.gates):
        level -= g is None
        pad = " " * min(2 * level, _MAX_INDENT)
        if g is None:
            lines.append(f"{pad}}}")
        elif isinstance(g, Prep):
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
            qs = " ".join(str(q) for q in g.register)
            lines.append(f"{pad}ornot {g.target} {qs}")
        else:
            lines.append(f"{pad}csub {g.control} {g.polarity} {{")
            level += 1
    return "\n".join(lines) + "\n"


def parse_circuit(text: str) -> Circuit:
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

    gates: list[Gate] = []
    frames: list[tuple[int, int, int, list[Gate]]] = []  # open csub: line, control, polarity, outer gates
    for ln_no, ln in rows[1:]:
        if ln == "}":
            if not frames:
                raise ParseError(f"unexpected {ln!r}", ln_no, 1)
            _, control, pol, outer = frames.pop()
            outer.append(ControlledSub(control, pol, Circuit(n_data, 0, gates)))
            gates = outer
            continue
        toks = ln.split()
        try:
            if toks[0] == "prep" and len(toks) == 6:
                q = int(toks[1])
                nums = [float(t) for t in toks[2:]]
                gates.append(Prep(q, complex(nums[0], nums[1]), complex(nums[2], nums[3])))
            elif toks[0] == "u":
                k = int(toks[1])
                qs = tuple(int(t) for t in toks[2:2 + k])
                nums = [float(t) for t in toks[2 + k:]]
                dim = 1 << k
                if len(nums) != 2 * dim * dim:
                    raise ValueError("matrix entry count")
                mat = np.array([complex(nums[2 * i], nums[2 * i + 1])
                                for i in range(dim * dim)]).reshape(dim, dim)
                gates.append(Unitary(qs, mat))
            elif toks[0] == "ornot" and len(toks) >= 3:
                gates.append(OrNot(int(toks[1]), tuple(int(t) for t in toks[2:])))
            elif toks[0] == "csub" and len(toks) == 4 and toks[3] == "{":
                frames.append((ln_no, int(toks[1]), int(toks[2]), gates))
                gates = []
            else:
                raise ValueError("unknown gate")
        except (ValueError, IndexError):
            raise ParseError(f"bad gate line {ln!r}", ln_no, 1) from None
    if frames:
        raise ParseError("unterminated csub block", frames[-1][0], 1)
    return Circuit(n_data, n_anc, gates)


__all__ = [
    "Circuit", "ControlledSub", "Gate", "OrNot", "Prep", "PrepStateError",
    "Unitary", "compile_tree", "format_circuit", "gate_count",
    "parse_circuit", "simulate", "verify_prepare",
]
