"""Text formats: the tree DSL and the amplitude listing.

Tree grammar (whitespace-insensitive, ';' comments run to end of line):

    node   := leaf | plus | tensor
    leaf   := "(leaf" INT COMPLEX COMPLEX ")"      ; qubit, alpha, beta
    plus   := "(+" {"(" COMPLEX node ")"}+ ")"     ; edge coefficient per child
    tensor := "(*" node+ ")"
    COMPLEX := FLOAT | FLOAT ("+"|"-") FLOAT "i"   ; e.g. 0.5, -0.5+0.5i

Amplitude listing: one line per basis state, "BITSTRING RE IM", in
lexicographic bitstring order; zero rows may be omitted.
"""

from __future__ import annotations

import re
from typing import NamedTuple

import numpy as np

from .errors import ParseError
from .trees import Leaf, Node, Plus, StateTree, Tensor, _fold, qubit_mask

_UFLOAT = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_FLOAT_RE = re.compile(rf"^[+-]?{_UFLOAT}$")
_COMPLEX_RE = re.compile(rf"^(?P<re>[+-]?{_UFLOAT})(?:(?P<im>[+-]{_UFLOAT})i)?$")
_INT_RE = re.compile(r"^\d+$")
_TOKEN_RE = re.compile(r";[^\n]*|[()]|[^ \t\r\n();]+")  # a comment, a paren or an atom


class Token(NamedTuple):
    kind: str  # '(', ')' or 'atom'
    text: str
    offset: int  # into the source text


def tokenize(text: str) -> list[Token]:
    return [Token(s if s in "()" else "atom", s, m.start())
            for m in _TOKEN_RE.finditer(text) if (s := m.group())[0] != ";"]


def fmt_float(x: float) -> str:
    if x == 0.0:
        x = 0.0  # normalize -0.0
    s = repr(float(x))
    if s.endswith(".0"):
        s = s[:-2]
    return s


def fmt_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return fmt_float(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{fmt_float(z.real)}{sign}{fmt_float(abs(z.imag))}i"


def parse_complex_text(text: str) -> complex:
    m = _COMPLEX_RE.match(text)
    if not m:
        raise ValueError(f"not a complex literal: {text!r}")
    re_part = float(m.group("re"))
    im_part = float(m.group("im")) if m.group("im") else 0.0
    return complex(re_part, im_part)


class _Reader:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    def error(self, message: str, t: Token) -> ParseError:
        """ParseError at the line:column of a token."""
        return ParseError(message, self.text.count("\n", 0, t.offset) + 1,
                          t.offset - self.text.rfind("\n", 0, t.offset))

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        t = self.peek()
        if t is None:
            raise self.error("unexpected end of input",
                             self.tokens[-1] if self.tokens else Token("atom", "", 0))
        self.pos += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.next()
        if t.kind != kind:
            raise self.error(f"expected {kind!r}, got {t.text!r}", t)
        return t

    def complex(self) -> complex:
        t = self.next()
        try:
            return parse_complex_text(t.text)
        except ValueError:
            raise self.error(f"expected a complex number, got {t.text!r}", t) from None


def _read_node(r: _Reader) -> Node:
    """One node, read with an explicit stack of the open (+ and (* vertices."""
    stack: list[tuple[Token, list]] = []  # head token, children read so far
    while True:
        r.expect("(")
        head = r.next()
        if head.kind != "atom":
            raise r.error("expected node head (leaf, + or *)", head)
        node: Node | None = None
        if head.text == "leaf":
            qt = r.next()
            if not _INT_RE.match(qt.text):
                raise r.error(f"leaf qubit must be an integer, got {qt.text!r}", qt)
            alpha = r.complex()
            beta = r.complex()
            r.expect(")")
            node = Leaf(int(qt.text), alpha, beta)
        elif head.text in ("+", "*"):
            stack.append((head, []))
        else:
            raise r.error(f"unknown node head {head.text!r}", head)
        # hand finished nodes to their parents until another child starts
        while stack:
            head, children = stack[-1]
            if node is not None:
                if head.text == "+":
                    r.expect(")")
                    children[-1] = (children[-1], node)  # the coefficient read before it
                else:
                    children.append(node)
                node = None
            t = r.peek()
            if t is None:
                raise r.error(f"unterminated ({head.text} ...)", head)
            if t.kind != ")":
                if head.text == "+":
                    r.expect("(")
                    children.append(r.complex())
                break
            r.next()
            if not children:
                raise r.error(f"({head.text} ...) needs at least one child", head)
            node = Plus(tuple(children)) if head.text == "+" else Tensor(tuple(children))
            stack.pop()
        else:
            return node


def parse(text: str, n: int | None = None) -> StateTree:
    """Parse tree DSL text; n defaults to the largest qubit mentioned."""
    r = _Reader(text)
    node = _read_node(r)
    t = r.peek()
    if t is not None:
        raise r.error(f"trailing input {t.text!r}", t)
    if n is None:
        n = qubit_mask(node).bit_length()
    return StateTree(n, node)


_WIDTH = 100


def _flat(node: Tensor | Plus, kids: list[tuple]) -> tuple[str | None, list]:
    """Bottom-up pass of the writer: (the vertex on one line, or None when
    that exceeds the width, its children's pairs)."""
    parts = [f for f, _ in kids]
    if None in parts:
        return None, kids
    if isinstance(node, Plus):
        parts = [f"({fmt_complex(c)} {f})" for (c, _), f in zip(node.children, parts)]
    flat = ("(* " if isinstance(node, Tensor) else "(+ ") + " ".join(parts) + ")"
    return (flat if len(flat) <= _WIDTH else None), kids


def serialize(tree: StateTree | Node) -> str:
    """Tree DSL text.  A vertex prints on one line when it fits the width at
    its indent, otherwise one child per line, indented by two more spaces."""
    node = tree.root if isinstance(tree, StateTree) else tree
    leaf = lambda lf: (f"(leaf {lf.qubit} {fmt_complex(lf.alpha)} {fmt_complex(lf.beta)})", ())
    out: list[str] = []
    todo: list = [(node, _fold(node, leaf, _flat, _flat), 0)]  # text, or (node, pair, indent)
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        nd, (flat, kids), indent = item
        if isinstance(nd, Leaf) or (flat is not None and len(flat) + indent <= _WIDTH):
            out.append(flat)
            continue
        sep = "\n" + " " * (indent + 2)
        todo.append(")")
        if isinstance(nd, Tensor):
            out.append("(*")
            for ch, kid in zip(reversed(nd.children), reversed(kids)):
                todo += [(ch, kid, indent + 2), sep]
        else:
            out.append("(+")
            for (c, ch), kid in zip(reversed(nd.children), reversed(kids)):
                todo += [")", (ch, kid, indent + 2), f"{sep}({fmt_complex(c)} "]
    out.append("\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# amplitude listings


def format_amplitudes(v: np.ndarray, skip_zeros: bool = False, tol: float = 0.0) -> str:
    n = int(np.log2(len(v)))
    if 1 << n != len(v):
        raise ValueError("amplitude vector length is not a power of 2")
    lines = []
    for x in range(len(v)):
        z = complex(v[x])
        if skip_zeros and abs(z) <= tol:
            continue
        lines.append(f"{x:0{n}b} {fmt_float(z.real)} {fmt_float(z.imag)}")
    return "\n".join(lines) + "\n"


def parse_amplitudes(text: str) -> np.ndarray:
    entries = []
    n = None
    for ln_no, raw in enumerate(text.splitlines(), start=1):
        ln = raw.split(";")[0].strip()
        if not ln:
            continue
        parts = ln.split()
        if len(parts) != 3:
            raise ParseError(f"expected 'BITS RE IM', got {raw!r}", ln_no, 1)
        bits, re_s, im_s = parts
        if set(bits) - {"0", "1"}:
            raise ParseError(f"bad bitstring {bits!r}", ln_no, 1)
        if n is None:
            n = len(bits)
        elif len(bits) != n:
            raise ParseError(f"inconsistent bitstring length {bits!r}", ln_no, 1)
        if not (_FLOAT_RE.match(re_s) and _FLOAT_RE.match(im_s)):
            raise ParseError(f"bad amplitude numbers in {raw!r}", ln_no, 1)
        entries.append((int(bits, 2), complex(float(re_s), float(im_s))))
    if n is None:
        raise ParseError("no amplitude lines found")
    v = np.zeros(1 << n, dtype=complex)
    for idx, z in entries:
        v[idx] = z
    return v


__all__ = [
    "Token", "tokenize", "fmt_float", "fmt_complex", "parse_complex_text",
    "parse", "serialize", "format_amplitudes", "parse_amplitudes",
]
