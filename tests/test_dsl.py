"""Tree DSL, amplitude listings, matrix text format."""

from __future__ import annotations

import math
import random
from collections import Counter

import numpy as np
import pytest

from conftest import random_tree
from statetrees.builders import build_cluster1d
from statetrees.dsl import (_TOKEN_RE, _Reader, fmt_complex, fmt_float, format_amplitudes, parse,
                            parse_amplitudes, parse_complex_text, serialize)
from statetrees.errors import ParseError
from statetrees.formulas import parse_formula, serialize_formula, tree_to_formula
from statetrees.gf2 import BitMatrix, format_matrix, parse_matrix
from statetrees.trees import Leaf, StateTree, evaluate, fidelity, qubit_mask, validate

R2 = 1 / math.sqrt(2)


def test_parse_leaf():
    t = parse("(leaf 1 0.7071067811865476 0.7071067811865476)")
    assert t.n == 1
    assert isinstance(t.root, Leaf)
    assert t.root.alpha == pytest.approx(R2)


def test_parse_complex_forms():
    assert parse_complex_text("0.5") == 0.5
    assert parse_complex_text("-0.5+0.5i") == complex(-0.5, 0.5)
    assert parse_complex_text("1e-3-2.5i") == complex(1e-3, -2.5)
    with pytest.raises(ValueError):
        parse_complex_text("abc")


def test_fmt_complex_roundtrip():
    for z in (0.5, -0.25, complex(0.5, -0.125), complex(0, 1), complex(-0.0, 0.0),
              complex(1 / 3, -2 / 7)):
        assert parse_complex_text(fmt_complex(z)) == complex(z)
    assert fmt_float(0.0) == "0"
    assert fmt_float(-0.5) == "-0.5"


def test_comments_and_whitespace():
    text = """
    ; a cat pair
    (+ (0.7071067811865476 (* (leaf 1 1 0) (leaf 2 1 0)))  ; first branch
       (0.7071067811865476 (* (leaf 1 0 1) (leaf 2 0 1))))
    """
    t = parse(text)
    v = evaluate(t)
    assert np.allclose(v, [R2, 0, 0, R2])


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse("(leaf 1 0.5)")
    try:
        parse("(+ (0.5 (leaf 1 1 0))\n  (oops))")
    except ParseError as e:
        assert e.line == 2
    else:
        raise AssertionError("expected a ParseError")


@pytest.mark.parametrize("reader, text, message", [
    (parse, "", "1:1: unexpected end of input"),
    (parse, "(leaf 1 0.5)", "1:12: expected a complex number, got ')'"),
    (parse, "(+ (0.5 (leaf 1 1 0))\n  (oops))", "2:4: expected a complex number, got 'oops'"),
    (parse, "; comment (\n  (leaf x 1 0)", "2:9: leaf qubit must be an integer, got 'x'"),
    (parse, "(* (leaf 1 1 0)\n\t(leaf 2 1 0)", "1:2: unterminated (* ...)"),
    (parse, "(+ (1 (leaf 1 1 0)))\n(leaf 2 1 0)", "2:1: trailing input '('"),
    (parse, "(*)", "1:2: (* ...) needs at least one child"),
    (parse, "((leaf 1 1 0))", "1:2: expected node head (leaf, + or *)"),
    (parse, "(leaf 1 1 0 )  )", "1:16: trailing input ')'"),
    (parse_formula, "(+ (var 1)\n   (const q))", "2:11: bad complex literal 'q'"),
    (parse_formula, "(var x)", "1:6: var index must be an integer, got 'x'"),
    (parse_formula, "(+ (var 1) (var 2)", "1:18: unexpected end of input"),
    (parse_formula, "(blah 1)", "1:2: unknown formula head 'blah'"),
    (parse_formula, "(* (var 1) (var 2))\n  (", "2:3: trailing input '('"),
    (parse_formula, "(+ ( (var 1))", "1:6: expected formula head (+, *, var, const)"),
    # indices start at 1, and numbers are ASCII (int() and float() accept other digits)
    (parse_formula, "(+ (var 1)\n  (var 0))", "2:8: var index must be at least 1, got '0'"),
    (parse_formula, "(var 00)", "1:6: var index must be at least 1, got '00'"),
    (parse_formula, "(var \u0661)", "1:6: var index must be an integer, got '\u0661'"),
    (parse_formula, "(var \u00b2)", "1:6: var index must be an integer, got '\u00b2'"),
    (parse_formula, "(const \u0660.\u0665)", "1:8: bad complex literal '\u0660.\u0665'"),
    (parse, "(* (leaf 1 1 0)\n   (leaf 0 1 0))", "2:10: leaf qubit must be at least 1, got '0'"),
    (parse, "(leaf \u0661 0.6 0.8)", "1:7: leaf qubit must be an integer, got '\u0661'"),
    (parse, "(leaf 1 \u0660.\u0666 0.8)", "1:9: expected a complex number, got '\u0660.\u0666'"),
    # positions found again from the text only when an error is raised
    (parse, "(* (leaf 1 1 0) ; a ) here", "1:2: unterminated (* ...)"),
    (parse, "(+ (1 (leaf 1 1 0)) ; )", "1:2: unterminated (+ ...)"),
    (parse, "(* (leaf 1 1 0) ; ) (\n (leaf 2 1 x))", "2:12: expected a complex number, got 'x'"),
    (parse, "(+ (0.6 (leaf 1 1 0))\r\n   (0.8 (leaf 1 0 x)))\r\n",
     "2:19: expected a complex number, got 'x'"),
    (parse, "(*\r\n(leaf 1 1 0)\r\n(leaf 2 1 0)\r\n", "1:2: unterminated (* ...)"),
    (parse, "(leaf 1 1 0) ; )\nx", "2:1: trailing input 'x'"),
    (parse, "(leaf 1 1 0) (leaf 2 1 0)", "1:14: trailing input '('"),
    (parse, "\n  (+ (1 (leaf 1 1 0)) (0.5", "2:24: unexpected end of input"),
    (parse, "(* (+) (leaf 1 1 0))", "1:5: (+ ...) needs at least one child"),
    (parse, "(tensor (leaf 1 1 0))", "1:2: unknown node head 'tensor'"),
    (parse, "(* (leaf 1 1 0) (Leaf 2 1 0))", "1:18: unknown node head 'Leaf'"),
    (parse, "(* (leaf 1 1 0) ())", "1:18: expected node head (leaf, + or *)"),
    (parse, "(* (leaf 1 1 0) (", "1:17: unexpected end of input"),
    (parse, ")", "1:1: expected '(', got ')'"),
    (parse, "(+ (1 (leaf 1 1 0)) 2)", "1:21: expected '(', got '2'"),
    (parse, "(+ (1 (leaf 1 1 0) x))", "1:20: expected ')', got 'x'"),
    (parse_formula, "(+ (var 1) (\n  x 2))", "2:3: unknown formula head 'x'"),
    (parse_formula, "(var 1) (var 2)", "1:9: trailing input '('"),
    (parse_formula, "(var 1) ; ) \r\n)", "2:1: trailing input ')'"),
    (parse_formula, "(+ (var 1) (var 2) (var 3))", "1:20: expected ')', got '('"),
    (parse_formula, "", "1:1: unexpected end of input"),
    (parse_formula, "(const", "1:2: unexpected end of input"),
    # the writer has no text for inf or nan, so the reader refuses literals that overflow
    (parse, "(leaf 1 1e999 0)", "1:9: expected a complex number, got '1e999'"),
    (parse, "(+ (1-1e400i (leaf 1 1 0)))", "1:5: expected a complex number, got '1-1e400i'"),
    (parse_formula, "(const -1e309)", "1:8: bad complex literal '-1e309'"),
    # a leaf equal to an earlier one is found by its three tokens before its ')' is read
    (parse, "(* (leaf 1 1 0) (leaf 1 1 0 0))", "1:29: expected ')', got '0'"),
    (parse, "(* (leaf 1 1 0) (leaf 1 1 0", "1:27: unexpected end of input"),
    (parse, "(* (leaf 1 1 0) (leaf 1 1", "1:25: unexpected end of input"),
    (parse, "(* (leaf 1 1 0)\n   (leaf 1 1 0 ; )\n", "2:14: unexpected end of input"),
    (parse, "(+ (1 (leaf 1 1 0)) (1 (leaf 1 1 0) x))", "1:37: expected ')', got 'x'"),
    # whitespace other than space, tab, CR and LF is part of an atom, and no atom accepts it
    (parse, "(leaf\x0b1 1 0)", "1:2: unknown node head 'leaf\\x0b1'"),
    (parse_formula, "(var\x0b1)", "1:2: unknown formula head 'var\\x0b1'"),
    (parse, "(leaf 1 1 0)\xa0", "1:13: trailing input '\\xa0'"),
    (parse_formula, "(var 1)\xa0", "1:8: trailing input '\\xa0'"),
    (parse, "(* (leaf 1 1 0)\u2003(leaf 2 1 0))", "1:16: expected '(', got '\\u2003'"),
    (parse_formula, "(var\u20031)", "1:2: unknown formula head 'var\\u20031'"),
    (parse, "\x1c(leaf 1 1 0)", "1:1: expected '(', got '\\x1c'"),
    (parse_formula, "\x1c(var 1)", "1:1: expected '(', got '\\x1c'"),
    (parse, "(leaf 1 1 0\x0c)", "1:11: expected a complex number, got '0\\x0c'"),
    (parse_formula, "(+ (var 1)\x85(var 2))", "1:11: expected '(', got '\\x85'"),
    (parse, "(leaf 1 1 0) ; \xa0 in a comment\n\x1f", "2:1: trailing input '\\x1f'"),
    # a comment with no newline after it, and a comment right after an atom
    (parse, "(* (leaf 1 1 0) ; no newline", "1:2: unterminated (* ...)"),
    (parse_formula, "(+ (var 1) (var 2) ; no newline", "1:18: unexpected end of input"),
    (parse, "(leaf 1 1 x;)\n)", "1:11: expected a complex number, got 'x'"),
    (parse_formula, "(var x;)\n)", "1:6: var index must be an integer, got 'x'"),
    # a + coefficient text is read once per parse; a bad one raises where it first stands
    (parse, "(+ (1 (leaf 1 1 0)) (1 (leaf 1 0 1)) (x (leaf 1 1 1)))",
     "1:39: expected a complex number, got 'x'"),
    (parse, "(+ (x (leaf 1 1 0)) (x (leaf 1 0 1)))", "1:5: expected a complex number, got 'x'"),
])
def test_parse_error_line_and_column(reader, text, message):
    with pytest.raises(ParseError) as err:
        reader(text)
    assert str(err.value) == message


_NOISE = ("(", ")", " ", "\n", "\r\n", "\t", ";", "; ) (", "leaf", "+", "*", "var", "const",
          "0", "1", "7", "-0.5+0.5i", "1e3", "x", "\u0661", "\x0b", "\xa0", "\x1c", "\u2003")


def _corrupt(rnd: random.Random, text: str, noise: tuple[str, ...] = _NOISE) -> str:
    """One to three edits: delete, insert or replace a short span with a
    token from `noise`, or cut the text."""
    for _ in range(rnd.randint(1, 3)):
        p = rnd.randrange(len(text) + 1)
        q = min(len(text), p + rnd.randint(1, 6))
        edit = rnd.randrange(4)
        if edit == 0:
            text = text[:p] + text[q:]
        elif edit == 1:
            text = text[:p] + rnd.choice(noise) + text[p:]
        elif edit == 2:
            text = text[:p] + rnd.choice(noise) + text[q:]
        else:
            text = text[:p]
    return text


def test_corrupted_texts_parse_or_raise_parse_error():
    # either a result that survives serialize -> parse, or a ParseError:
    # never IndexError, ValueError or another exception from the reader
    rnd = random.Random(9)
    texts = [serialize(random_tree(77, 1 + t % 5, t)) for t in range(24)]
    texts += [serialize_formula(tree_to_formula(parse(t))) for t in texts[:12]]
    outcomes = Counter()
    for _ in range(3000):
        text = _corrupt(rnd, rnd.choice(texts))
        # the str.split tokens are the grammar's own: _TOKEN_RE's, comments dropped
        assert _Reader(text).tokens == [t for t in _TOKEN_RE.findall(text) if t[0] != ";"] + [""]
        for reader, write in ((parse, serialize), (parse_formula, serialize_formula)):
            try:
                got = reader(text)
            except ParseError:
                outcomes[reader.__name__, "error"] += 1
                continue
            outcomes[reader.__name__, "ok"] += 1
            assert reader(write(got)) == got
            if reader is parse:
                assert got.n == qubit_mask(got.root).bit_length()
                assert parse(text, 40) == StateTree(40, got.root)
    assert len(outcomes) == 4 and min(outcomes.values()) >= 50, outcomes


class _NoRegexTokens:
    """Stands in for _TOKEN_RE where only error positions may use it."""

    def findall(self, text):
        raise AssertionError(f"the regex tokenizer read {text[:40]!r}")


def test_written_text_is_split_without_the_regex(monkeypatch):
    texts = [serialize(random_tree(55, 1 + t % 6, t)) for t in range(30)]
    texts.append(serialize(build_cluster1d(6)))
    formulas = [serialize_formula(tree_to_formula(parse(text))) for text in texts[:10]]
    monkeypatch.setattr("statetrees.dsl._TOKEN_RE", _NoRegexTokens())
    for text in texts:
        assert serialize(parse(text)) == text
    for text in formulas:
        assert serialize_formula(parse_formula(text)) == text
    with pytest.raises(AssertionError, match="regex tokenizer"):
        parse("(leaf 1 1 0)\xa0")


def test_numbers_refuse_a_trailing_newline():
    # "$" matches before a final newline; the readers match the whole text
    for text in ("1\n", "0.5\n", "-0.5+0.5i\n", "1e3\n"):
        with pytest.raises(ValueError, match="^not a complex literal"):
            parse_complex_text(text)
    reader = _Reader("(var 1)")
    reader.tokens[2] = "1\n"
    with pytest.raises(ParseError, match="var index must be an integer"):
        reader.index("var index", 2)


def test_roundtrip_random_trees_bit_identical():
    for trial in range(100):
        n = 1 + trial % 6
        t = random_tree(1234, n, trial)
        text = serialize(t)
        t2 = parse(text)
        assert serialize(t2) == text
        assert fidelity(evaluate(t2), evaluate(t)) > 1 - 1e-12
        assert validate(t2) == []


def test_amplitude_listing_roundtrip():
    v = np.array([0.5, 0, 0.5j, -0.5 + 0.5j], dtype=complex)
    text = format_amplitudes(v)
    assert text.splitlines()[0] == "00 0.5 0"
    back = parse_amplitudes(text)
    assert np.allclose(back, v)
    sparse = format_amplitudes(v, skip_zeros=True)
    assert len(sparse.splitlines()) == 3
    assert np.allclose(parse_amplitudes(sparse), v)


def test_skip_zeros_keeps_rows_by_python_abs():
    # tol set to each row's own |z|, as numpy and as Python compute it: the
    # two differ in the last bit on some rows, and Python's abs decides
    rng = np.random.default_rng(5)
    v = (rng.normal(size=256) + 1j * rng.normal(size=256)) * 1e-9
    v[::7] = 0
    v[3] = complex("nan")
    rows = format_amplitudes(v).splitlines()
    assert rows == [f"{x:08b} {fmt_float(complex(z).real)} {fmt_float(complex(z).imag)}"
                    for x, z in enumerate(v)]  # the row loop the vector reads replaced
    tols = [0.0] + [t for z in v[1:60] for t in (abs(complex(z)), float(np.abs(z)))]
    for tol in tols:
        want = [ln for z, ln in zip(v, rows) if not abs(complex(z)) <= tol]
        assert format_amplitudes(v, skip_zeros=True, tol=tol).splitlines() == want


def ref_format_amplitudes(v: np.ndarray, skip_zeros: bool = False, tol: float = 0.0) -> str:
    """The row-by-row listing that format_amplitudes reproduces byte for byte."""
    n = int(np.log2(len(v)))
    if 1 << n != len(v):
        raise ValueError("amplitude vector length is not a power of 2")
    rows, kept = range(len(v)), v
    if skip_zeros:
        rows = np.flatnonzero(~(np.abs(v) <= tol * (1 - 1e-12)))
        rows, kept = rows.tolist(), v[rows]
    lines = [f"{x:0{n}b} {fmt_float(a)} {fmt_float(b)}"
             for x, a, b in zip(rows, kept.real.tolist(), kept.imag.tolist())
             if not (skip_zeros and abs(complex(a, b)) <= tol)]
    return "\n".join(lines) + "\n"


def _listing_corpus() -> list[np.ndarray]:
    rng = np.random.default_rng(11)
    out = []
    for n in range(13):
        size = 1 << n
        out.append(rng.normal(size=size) + 1j * rng.normal(size=size))
        ints = rng.integers(-2, 3, size=size) + 1j * rng.integers(-2, 3, size=size)
        ints[rng.random(size) < 0.3] = complex(-0.0, -0.0)
        ints[rng.random(size) < 0.2] = complex(0.0, -0.0)
        out.append(ints)
    nan, inf = float("nan"), float("inf")
    out.append(np.array([-0.0, complex(-0.0, -0.0), 1e16, -1e16, 9999999999999998.0, nan, inf,
                         -inf, 5e-324, complex(nan, 2), complex(3, -nan), complex(-5e-324, inf),
                         1.0, -1.0, 0.5, complex(1e-300, -1e300)]))
    out.append(evaluate(build_cluster1d(12)))  # its real parts: 5 floats, 4 of them ulps apart
    # floats one or two ulps apart: each keeps its own text
    near = [0.1, -0.00390625, 1 / 3]
    near += [np.nextafter(x, s * inf) for x in near for s in (1, -1)]
    near += [np.nextafter(np.nextafter(x, inf), inf) for x in near[:3]]
    out.append(rng.choice(near, 256) + 1j * rng.choice(near, 256))
    return out


def test_format_amplitudes_matches_the_row_loop():
    cases = [(v, skip_zeros, tol) for v in _listing_corpus()
             for skip_zeros in (False, True) for tol in (0.0, 1e-9, 0.5, 2.0, float("inf"))]
    assert len(cases) == 290
    assert ref_format_amplitudes(np.array([0.5 + 0j])) == "0 0.5 0\n"  # n = 0 lists bit 0
    for v, skip_zeros, tol in cases:
        assert format_amplitudes(v, skip_zeros, tol) == ref_format_amplitudes(v, skip_zeros, tol), \
            (len(v), skip_zeros, tol)


@pytest.mark.parametrize("size", [0, 3, 6, 12])
def test_format_amplitudes_refuses_a_length_not_a_power_of_2(size):
    with pytest.raises(ValueError, match="^amplitude vector length is not a power of 2$"):
        format_amplitudes(np.zeros(size, dtype=complex))


def test_amplitude_listing_errors():
    with pytest.raises(ParseError):
        parse_amplitudes("00 0.5\n")
    with pytest.raises(ParseError):
        parse_amplitudes("0x 0.5 0\n")
    with pytest.raises(ParseError):
        parse_amplitudes("01 \u0660.\u0665 0\n")


def test_matrix_format_roundtrip():
    a = BitMatrix(2, 4, (0b1010, 0b0111))
    text = format_matrix(a, b=0b01)
    a2, b2 = parse_matrix(text)
    assert a2 == a and b2 == 0b01
    assert format_matrix(a2, b2) == text
    a3, b3 = parse_matrix("1 3\n110\n")
    assert b3 is None and a3.rows == (0b110,)
    with pytest.raises(ParseError):
        parse_matrix("2 2\n01\n")
    with pytest.raises(ParseError):
        parse_matrix("2 2\n01\n0x\n")


def test_matrix_text_roundtrips_at_every_row_count():
    # k = 0 writes an empty b line, which parse_matrix reads back as 0
    for k in range(4):
        a = BitMatrix(k, 3, tuple((5 * i + 3) % 8 for i in range(k)))
        for b in [None, *range(1 << k)]:
            text = format_matrix(a, b)
            assert parse_matrix(text) == (a, b)
            assert format_matrix(a, b) == text
    assert format_matrix(BitMatrix(0, 3, ()), b=0) == "0 3\nb\n"
