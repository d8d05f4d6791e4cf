"""Tree DSL, amplitude listings, matrix text format."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import random_tree
from statetrees.dsl import (fmt_complex, fmt_float, format_amplitudes, parse,
                            parse_amplitudes, parse_complex_text, serialize)
from statetrees.errors import ParseError
from statetrees.formulas import parse_formula
from statetrees.gf2 import BitMatrix, format_matrix, parse_matrix
from statetrees.trees import Leaf, evaluate, fidelity, validate

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
])
def test_parse_error_line_and_column(reader, text, message):
    with pytest.raises(ParseError) as err:
        reader(text)
    assert str(err.value) == message


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


def test_amplitude_listing_errors():
    with pytest.raises(ParseError):
        parse_amplitudes("00 0.5\n")
    with pytest.raises(ParseError):
        parse_amplitudes("0x 0.5 0\n")


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
