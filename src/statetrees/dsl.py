"""Text formats: the tree DSL and the amplitude listing.

Tree grammar (whitespace-insensitive, ';' comments run to end of line):

    node   := leaf | plus | tensor
    leaf   := "(leaf" INDEX COMPLEX COMPLEX ")"    ; qubit, alpha, beta
    plus   := "(+" {"(" COMPLEX node ")"}+ ")"     ; edge coefficient per child
    tensor := "(*" node+ ")"
    COMPLEX := FLOAT | FLOAT ("+"|"-") FLOAT "i"   ; e.g. 0.5, -0.5+0.5i; finite
    INDEX  := an integer >= 1                      ; numbers use ASCII digits

The reader shared with the formula DSL (formulas.parse_formula) drops
comments, pads each parenthesis with spaces and splits the text with
str.split into plain string tokens, then walks them once with an explicit
stack; parse takes n from the largest qubit it reads.  str.split also
splits on whitespace that the grammar keeps inside an atom (\v, \f,
\x1c-\x1f, \x85, \xa0 and the Unicode spaces); no atom accepts such a
character, so a text that has one outside a comment is refused, and only
to refuse it at the same token is it split with the grammar's own regex,
_TOKEN_RE.  Token offsets are not kept: an error scans the text again with
_TOKEN_RE to give the line:column of the token it reports.  Every failure
is a ParseError.

parse interns vertices: equal subtree text gives one object, so a tree
read from text shares its repeated subtrees (the 15,478 vertices of
cluster1d(16) are 342 objects) and every fold visits each once (see
trees._fold).  One dict per call maps a vertex's key to its object: a
leaf's three tokens, a tensor's children by id, a + vertex's coefficient
texts and children by id.  No node is hashed, as a dataclass hash walks
the whole subtree.  A key is looked up only once its tokens have passed
the checks a new vertex runs, so each error keeps its text and position.
Each distinct + coefficient text is read once per call; a bad one is
never stored, so its first occurrence raises.

Amplitude listing: one line per basis state, "BITSTRING RE IM", in
lexicographic bitstring order; zero rows may be omitted.  The states of
interest have 2^n rows but few distinct amplitudes (a coset state's are
0 and 1/sqrt|C|, a graph state's +-2^(-n/2)), so format_amplitudes calls
fmt_float once per distinct real and imaginary part and joins each
bitstring from tables of its high and low halves; the text is the same
as formatting row by row.
"""

from __future__ import annotations

import math
import operator
import re
from itertools import islice, product

import numpy as np

from .errors import OversizeError, ParseError
from .trees import MAX_QUBITS, Leaf, Node, Plus, StateTree, Tensor, _fold, _vertices

# re.ASCII: \d must not match other scripts' digits, which int() and float() accept
_UFLOAT = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
# matched with fullmatch: "$" would also match before a trailing newline
_FLOAT_RE = re.compile(rf"[+-]?{_UFLOAT}", re.ASCII)
_COMPLEX_RE = re.compile(rf"(?P<re>[+-]?{_UFLOAT})(?:(?P<im>[+-]{_UFLOAT})i)?", re.ASCII)
_INT_RE = re.compile(r"\d+", re.ASCII)
_TOKEN_RE = re.compile(r";[^\n]*|[()]|[^ \t\r\n();]+")  # a comment, a paren or an atom
_COMMENT_RE = re.compile(r";[^\n]*")
# whitespace that str.split splits on but an atom of _TOKEN_RE holds; \s is str.isspace
_ODD_SPACE_RE = re.compile(r"[^\S \t\r\n]")
_ODD_ASCII_SPACE = [c for c in map(chr, range(128)) if _ODD_SPACE_RE.match(c)]  # \v \f \x1c-\x1f


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
    m = _COMPLEX_RE.fullmatch(text)
    if not m:
        raise ValueError(f"not a complex literal: {text!r}")
    re_part = float(m.group("re"))
    im_part = float(m.group("im")) if m.group("im") else 0.0
    if not (math.isfinite(re_part) and math.isfinite(im_part)):  # 1e999: the writer cannot write it
        raise ValueError(f"complex literal out of range: {text!r}")
    return complex(re_part, im_part)


class _Reader:
    """The tokens of a DSL text as plain strings, comments dropped, then an
    end sentinel that fails every test a reader makes: a reader that tests
    each token before it reads the next never reads past the sentinel."""

    def __init__(self, text: str):
        self.text = text
        body = _COMMENT_RE.sub(" ", text) if ";" in text else text
        # isascii is O(1): only a text with non-ASCII characters needs the regex scan
        if (any(c in body for c in _ODD_ASCII_SPACE) if body.isascii()
                else _ODD_SPACE_RE.search(body)):
            # an error path, not a second reader: an atom holds this whitespace and no
            # atom accepts it, so these tokens only let the walk refuse the same one
            self.tokens = [t for t in _TOKEN_RE.findall(text) if t[0] != ";"]
        else:
            self.tokens = body.replace("(", " ( ").replace(")", " ) ").split()
        self.end = len(self.tokens)  # the index of the sentinel
        self.tokens.append("")

    def error(self, message: str, i: int) -> ParseError:
        """ParseError at the line:column of token i.  At the sentinel,
        whatever was expected, the input ended: report that at the last
        token (or at the start of a text without tokens)."""
        if i >= self.end:
            message, i = "unexpected end of input", self.end - 1
        offset = 0
        if i >= 0:
            starts = (m.start() for m in _TOKEN_RE.finditer(self.text) if m.group()[0] != ";")
            offset = next(islice(starts, i, None))
        return ParseError(message, self.text.count("\n", 0, offset) + 1,
                          offset - self.text.rfind("\n", 0, offset))

    def unexpected(self, want: str, i: int) -> ParseError:
        return self.error(f"expected {want!r}, got {self.tokens[i]!r}", i)

    def index(self, what: str, i: int) -> int:
        """Token i as a qubit or variable index: an integer, at least 1."""
        t = self.tokens[i]
        if not _INT_RE.fullmatch(t):
            raise self.error(f"{what} must be an integer, got {t!r}", i)
        if int(t) < 1:
            raise self.error(f"{what} must be at least 1, got {t!r}", i)
        return int(t)

    def complex(self, i: int, what: str = "expected a complex number, got") -> complex:
        try:
            return parse_complex_text(self.tokens[i])
        except ValueError:
            raise self.error(f"{what} {self.tokens[i]!r}", i) from None


def parse(text: str, n: int | None = None) -> StateTree:
    """Parse tree DSL text; n defaults to the largest qubit mentioned.
    Equal subtree text gives one shared object (see the module docstring)."""
    r = _Reader(text)
    toks = r.tokens
    # a vertex's key -> the one object read for it; keys of the three kinds never
    # collide: a leaf's holds strings, a tensor's ints, a + vertex's both in turn
    made: dict[tuple, Node] = {}
    coeffs: dict[str, complex] = {}  # a + coefficient's text -> its value
    stack: list[tuple[int, list, list]] = []  # an open vertex's head token, children, key so far
    top = i = 0  # the largest qubit read; the next token
    while True:
        if toks[i] != "(":
            raise r.unexpected("(", i)
        head = toks[i + 1]
        node: Node | None = None
        if head == "leaf":
            # a slice, as the leaf may run into the end sentinel; no stored key
            # holds the sentinel, so then the key misses and the checks report it
            key = tuple(toks[i + 2:i + 5])
            node = made.get(key)
            if node is None:
                q = r.index("leaf qubit", i + 2)
                node = made[key] = Leaf(q, r.complex(i + 3), r.complex(i + 4))
                top = max(top, q)
            if toks[i + 5] != ")":
                raise r.unexpected(")", i + 5)
            i += 6
        elif head == "+" or head == "*":
            stack.append((i + 1, [], []))
            i += 2
        elif head in "()":
            raise r.error("expected node head (leaf, + or *)", i + 1)
        else:
            raise r.error(f"unknown node head {head!r}", i + 1)
        # hand finished nodes to their parents until another child starts
        while stack:
            h, children, key = stack[-1]
            plus = toks[h] == "+"
            if node is not None:
                if plus:
                    if toks[i] != ")":
                        raise r.unexpected(")", i)
                    i += 1
                    children[-1] = (children[-1], node)  # the coefficient read before it
                else:
                    children.append(node)
                key.append(id(node))
                node = None
            if i == r.end:
                raise r.error(f"unterminated ({toks[h]} ...)", h)
            if toks[i] != ")":
                if plus:
                    if toks[i] != "(":
                        raise r.unexpected("(", i)
                    c = coeffs.get(toks[i + 1])
                    if c is None:
                        c = coeffs[toks[i + 1]] = r.complex(i + 1)
                    children.append(c)
                    key.append(toks[i + 1])
                    i += 2
                break
            i += 1
            if not children:
                raise r.error(f"({toks[h]} ...) needs at least one child", h)
            key = tuple(key)
            node = made.get(key)
            if node is None:
                node = made[key] = Plus(tuple(children)) if plus else Tensor(tuple(children))
            stack.pop()
        else:
            break
    if i < r.end:
        raise r.error(f"trailing input {toks[i]!r}", i)
    return StateTree(top if n is None else n, node)


_WIDTH = 100
# a line's indent stops growing 50 levels down, so text grows linearly with depth
_MAX_INDENT = 100


def _layout(head: str, kids: list[tuple[str, tuple, str]]) -> tuple:
    """Bottom-up pass of the writer, shared with the formula DSL: a vertex's
    (text on one line, or None past the width; head; children as (text
    before, layout, text after)).  A leaf's is (its text, None, ())."""
    parts = []
    for pre, kid, post in kids:
        if kid[0] is None:
            return None, head, kids
        parts.append(pre + kid[0] + post)
    flat = f"{head} {' '.join(parts)})"
    return (flat if len(flat) <= _WIDTH else None), head, kids


def _write(layout: tuple) -> str:
    """Top-down pass of the writer: a vertex goes on one line when it fits
    the width at its indent (then so do its children), otherwise its head
    and one child per line, indented by two more spaces up to _MAX_INDENT."""
    out: list[str] = []
    todo: list = [(layout, 0)]  # text, or (layout, indent)
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        (flat, head, kids), indent = item
        if head is None or (flat is not None and len(flat) + indent <= _WIDTH):
            out.append(flat)
            continue
        indent = min(indent + 2, _MAX_INDENT)
        sep = "\n" + " " * indent
        out.append(head)
        todo.append(")")
        for pre, kid, post in reversed(kids):
            todo += [post, (kid, indent), sep + pre]
    out.append("\n")
    return "".join(out)


def serialize(tree: StateTree | Node) -> str:
    """Tree DSL text, laid out by _write."""
    node = tree.root if isinstance(tree, StateTree) else tree
    leaf = lambda lf: (f"(leaf {lf.qubit} {fmt_complex(lf.alpha)} {fmt_complex(lf.beta)})", None, ())
    tensor = lambda _, kids: _layout("(*", [("", kid, "") for kid in kids])
    plus = lambda nd, kids: _layout("(+", [(f"({fmt_complex(c)} ", kid, ")")
                                           for (c, _), kid in zip(nd.children, kids)])
    return _write(_fold(node, leaf, _vertices(tensor, plus)))


# ---------------------------------------------------------------------------
# amplitude listings


def _texts(x: np.ndarray) -> list:
    """fmt_float of each entry, called once per distinct value: equal
    values (0.0 and -0.0, every NaN) have one text."""
    values, inverse = np.unique(x, return_inverse=True)
    return np.array([fmt_float(a) for a in values.tolist()], dtype=object)[inverse].tolist()


def _bit_tables(n: int) -> tuple[list[str], list[str]]:
    """Tables of the texts of a row's high n // 2 and low b = n - n // 2
    bits: row x's bitstring is hi[x >> b] + lo[x & (2^b - 1)], and
    product(hi, lo) gives every row's in order."""
    high, low = n // 2, n - n // 2
    # format(0, "00b") is "0": only the high half of a 1-entry vector's bits is empty
    return ([format(x, f"0{high}b") for x in range(1 << high)] if high else [""],
            [format(x, f"0{low}b") for x in range(1 << low)])


def format_amplitudes(v: np.ndarray, skip_zeros: bool = False, tol: float = 0.0) -> str:
    """The amplitude listing of v (see the module docstring): each distinct
    real and imaginary part is formatted once, and the text is the same as
    formatting row by row.  With skip_zeros, a row is left out when
    Python's abs of its amplitude is at most tol; the bit tables are built
    only when more rows are kept than the tables hold."""
    size = len(v)
    if size == 0 or size & (size - 1):
        raise ValueError("amplitude vector length is not a power of 2")
    n = size.bit_length() - 1
    if not skip_zeros:
        bits = product(*_bit_tables(n))
    else:
        # np.abs can differ from Python's abs in the last bit, so the vector
        # pass keeps a margin (and NaN rows) and Python's abs decides, once
        # per distinct (re, im): abs reads no sign of zero and no NaN payload
        rows = np.flatnonzero(~(np.abs(v) <= tol * (1 - 1e-12)))
        re, re_at = np.unique(v.real[rows], return_inverse=True)
        im, im_at = np.unique(v.imag[rows], return_inverse=True)
        pairs, pair_at = np.unique(re_at * len(im) + im_at, return_inverse=True)
        re, im = re.tolist(), im.tolist()
        keep = [not abs(complex(re[p // len(im)], im[p % len(im)])) <= tol for p in pairs.tolist()]
        rows = rows[np.array(keep, dtype=bool)[pair_at]]
        v = v[rows]
        low = n - n // 2
        # more rows than the tables hold: 3 or more, so itemgetter gives tuples
        if len(rows) > (1 << n // 2) + (1 << low):
            hi_t, lo_t = _bit_tables(n)
            bits = zip(operator.itemgetter(*(rows >> low).tolist())(hi_t),
                       operator.itemgetter(*(rows & ((1 << low) - 1)).tolist())(lo_t))
        else:
            bits = ((f"{x:0{n}b}", "") for x in rows.tolist())
    return "\n".join([f"{hb}{lb} {a} {b}"
                      for (hb, lb), a, b in zip(bits, _texts(v.real), _texts(v.imag))]) + "\n"


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
            if n > MAX_QUBITS:  # refused before the 2^n vector is made
                raise OversizeError(f"{n}-bit amplitude listing exceeds the dense cap {MAX_QUBITS}")
        elif len(bits) != n:
            raise ParseError(f"inconsistent bitstring length {bits!r}", ln_no, 1)
        if not (_FLOAT_RE.fullmatch(re_s) and _FLOAT_RE.fullmatch(im_s)):
            raise ParseError(f"bad amplitude numbers in {raw!r}", ln_no, 1)
        re_part, im_part = float(re_s), float(im_s)
        if not (math.isfinite(re_part) and math.isfinite(im_part)):  # 1e999, as parse_complex_text
            raise ParseError(f"amplitude numbers out of range in {raw!r}", ln_no, 1)
        entries.append((int(bits, 2), complex(re_part, im_part)))
    if n is None:
        raise ParseError("no amplitude lines found")
    v = np.zeros(1 << n, dtype=complex)
    for idx, z in entries:
        v[idx] = z
    return v


__all__ = [
    "fmt_float", "fmt_complex", "parse_complex_text",
    "parse", "serialize", "format_amplitudes", "parse_amplitudes",
]
