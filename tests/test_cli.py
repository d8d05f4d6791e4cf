"""End-to-end CLI: pipes, formats, determinism, error codes."""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np
import pytest

CLI = [sys.executable, "-m", "statetrees.cli"]


def run(args, stdin: str = "", timeout=None):
    return subprocess.run(CLI + args, input=stdin, capture_output=True,
                          text=True, timeout=timeout)


def test_eval_fixture_exact_lines():
    r = run(["eval", "cluster2.tree"])
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert len(lines) == 4
    assert lines[-1] == "11 -0.5 0"


def test_eval_knill_fixture():
    r = run(["eval", "knill5.tree", "--skip-zeros"])
    assert r.returncode == 0
    assert len(r.stdout.splitlines()) == 16


def test_build_eval_pipe():
    r = run(["build", "cat", "--n", "3"])
    assert r.returncode == 0
    r2 = run(["eval", "-", "--skip-zeros"], stdin=r.stdout)
    assert r2.returncode == 0
    lines = r2.stdout.splitlines()
    assert lines[0].startswith("000 0.7071067811865475")
    assert lines[1].startswith("111 0.7071067811865475")


def test_mots_value(tmp_path):
    mat = tmp_path / "parity4.mat"
    mat.write_text("1 4\n1111\n")
    r = run(["mots", "--matrix", str(mat)])
    assert r.returncode == 0
    assert "value\t16" in r.stdout
    wit = tmp_path / "w.tree"
    tab = tmp_path / "t.tsv"
    r = run(["mots", "--matrix", str(mat), "--witness", str(wit),
             "--table", str(tab), "--convention", "free"])
    assert r.returncode == 0
    r2 = run(["eval", str(wit), "--skip-zeros"])
    assert len(r2.stdout.splitlines()) == 8  # parity-4 coset has 8 strings
    assert tab.read_text().startswith("columns\tvalue\targmin")


def test_mots_over_the_cap_is_one_error_line(tmp_path):
    from statetrees.mots import MAX_N
    mat = tmp_path / "wide.mat"
    mat.write_text(f"1 {MAX_N + 1}\n" + "1" * (MAX_N + 1) + "\n")
    tab = tmp_path / "t.tsv"
    r = run(["mots", "--matrix", str(mat), "--table", str(tab)])
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr.startswith(f"ERROR oversize: n={MAX_N + 1}: ")
    assert r.stderr.count("\n") == 1 and r.stderr.endswith(f"n <= {MAX_N}\n")
    assert not tab.exists()


def test_compile_simulate_pipe():
    built = run(["build", "parity", "--n", "4"]).stdout
    circ = run(["compile", "-"], stdin=built)
    assert circ.returncode == 0
    sim = run(["simulate", "-", "--skip-zeros"], stdin=circ.stdout)
    assert sim.returncode == 0
    # 8 even-parity strings on 4 data qubits (+ ancilla zeros on the right)
    assert len(sim.stdout.splitlines()) == 8


def test_convert_roundtrip(tmp_path):
    built = run(["build", "hamming", "--n", "4", "--k", "2"]).stdout
    f = run(["convert", "-", "--to", "formula"], stdin=built)
    assert f.returncode == 0
    t = run(["convert", "-", "--to", "tree", "--n", "4"], stdin=f.stdout)
    assert t.returncode == 0
    amps = run(["eval", "-"], stdin=t.stdout).stdout
    from statetrees.dsl import parse_amplitudes
    v = parse_amplitudes(amps)
    members = [x for x in range(16) if bin(x).count("1") == 2]
    expect = np.zeros(16, dtype=complex)
    expect[members] = 6 ** -0.5
    assert abs(np.vdot(v, expect)) ** 2 > 1 - 1e-9


def test_balance_cli():
    comb = "(+ (+ (+ (var 1) (var 2)) (var 3)) (var 4))\n"
    r = run(["balance", "-"], stdin=comb)
    assert r.returncode == 0
    assert r.stdout.count("var") == 4


def test_validate_cli():
    r = run(["validate", "-"], stdin="(+ (1 (leaf 1 1 0)) (1 (leaf 1 0 1)))\n")
    assert r.returncode == 0
    assert "vertex-not-normalized" in r.stdout


def test_classify_cli():
    r = run(["classify", "knill5.tree"])
    assert r.stdout.strip() == "manifestly-orthogonal"


def test_rank_exp_subcommands(tmp_path):
    r = run(["rank-exp", "subgroup", "--n", "8", "--trials", "50", "--seed", "5"])
    assert r.returncode == 0
    header = r.stdout.splitlines()[0].split("\t")
    assert "both_invertible_fraction" in header
    r = run(["rank-exp", "vandermonde", "--n", "15", "--k", "3", "--d", "4",
             "--c", "8", "--trials", "50", "--seed", "5"])
    assert r.returncode == 0
    assert "full_rank_fraction" in r.stdout
    mat = tmp_path / "sub.mat"
    mat.write_text("2 6\n111000\n000111\n")
    r = run(["rank-exp", "erasure", "--matrix", str(mat), "--l", "2",
             "--trials", "20", "--seed", "5"])
    assert r.returncode == 0
    r = run(["rank-exp", "subset-sum", "--n", "12", "--m", "6", "--p", "13",
             "--gamma", "0.2", "--trials", "20", "--seed", "5"])
    assert r.returncode == 0
    amps = run(["eval", "-"], stdin=run(["build", "cat", "--n", "4"]).stdout).stdout
    state = tmp_path / "cat.amps"
    state.write_text(amps)
    r = run(["rank-exp", "chi", "--state", str(state)])
    assert r.returncode == 0
    assert r.stdout.splitlines()[1].split("\t")[1] == "2"


def test_rank_exp_chi_sees_every_split(tmp_path):
    # the split {1,2,5}|{3,4} puts qubits 1 and n together; it has rank 4
    state = tmp_path / "s.amps"
    state.write_text("".join(f"{b} 0.5 0\n" for b in ("00000", "00011", "01100", "10110")))
    r = run(["rank-exp", "chi", "--state", str(state)])
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout.splitlines() == ["n\tchi", "5\t4"]


def test_rank_exp_erasure_past_the_dense_table(tmp_path):
    from statetrees.gf2 import format_matrix, random_bitmatrix

    a = random_bitmatrix(6, 24, 24)
    mat = tmp_path / "wide.mat"
    mat.write_text(format_matrix(a, a.mul_vec(0xABCDE)))
    r = run(["rank-exp", "erasure", "--matrix", str(mat), "--l", "4",
             "--trials", "50", "--seed", "5"])
    assert (r.returncode, r.stderr) == (0, "")
    header, values = r.stdout.splitlines()
    rep = dict(zip(header.split("\t"), values.split("\t")))
    assert rep["n"] == "24"
    assert 0 <= int(rep["rank_min"]) <= int(rep["rank_max"]) <= 16


def test_rank_exp_erasure_threshold_overflow_is_an_error_line(tmp_path):
    mat = tmp_path / "sub.mat"
    mat.write_text("2 6\n111000\n000111\n")
    r = run(["rank-exp", "erasure", "--matrix", str(mat), "--l", "2000", "--trials", "3"])
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == "ERROR oversize: threshold 2^(l - l^(1/8)/2) overflows a float at l=2000\n"


@pytest.mark.parametrize("trials", ["0", "-1"])
@pytest.mark.parametrize("experiment", [
    ["subgroup", "--n", "8"],
    ["vandermonde", "--n", "15", "--k", "3", "--d", "4", "--c", "8"],
    ["erasure", "--matrix", "MAT", "--l", "2"],
    ["subset-sum", "--n", "12", "--m", "6", "--p", "13"],
])
def test_rank_exp_without_trials_is_one_domain_error(tmp_path, experiment, trials):
    mat = tmp_path / "sub.mat"
    mat.write_text("2 6\n111000\n000111\n")
    args = [str(mat) if a == "MAT" else a for a in experiment]
    r = run(["rank-exp"] + args + ["--trials", trials])
    assert (r.returncode, r.stdout, r.stderr) == (1, "", "ERROR domain: trials must be at least 1\n")


def test_vandermonde_cli():
    r = run(["vandermonde", "--n", "7", "--k", "2", "--d", "3"])
    assert r.returncode == 0
    assert r.stdout.splitlines()[0] == "56 6"
    r = run(["vandermonde", "--n", "7", "--k", "2", "--d", "3", "--check-weight"])
    assert "min_nonzero_image_weight" in r.stdout
    vals = r.stdout.splitlines()[1].split("\t")
    assert int(vals[2]) >= int(vals[3])  # measured >= guarantee


def test_determinism_byte_identical():
    a = run(["rank-exp", "subgroup", "--n", "8", "--trials", "100", "--seed", "42"])
    b = run(["rank-exp", "subgroup", "--n", "8", "--trials", "100", "--seed", "42"])
    assert a.stdout == b.stdout
    c = run(["build", "cluster1d", "--n", "8"])
    d = run(["build", "cluster1d", "--n", "8"])
    assert c.stdout == d.stdout


def test_error_exit_codes():
    r = run(["eval", "no-such-file.tree"])
    assert r.returncode == 1
    assert r.stderr.startswith("ERROR ")
    r = run(["eval", "-"], stdin="(leaf 1 1)\n")
    assert r.returncode == 1
    assert r.stderr.startswith("ERROR parse:")
    r = run(["compile", "-"], stdin="(+ (0.7071067811865476 (leaf 1 0.7071067811865476 0.7071067811865476)) (0.7071067811865476 (leaf 1 0.7071067811865476 0.7071067811865476)))\n")
    assert r.returncode == 1
    assert "ERROR non-orthogonal:" in r.stderr
    r = run(["frobnicate"])
    assert r.returncode == 2
    r = run(["build", "hamming", "--n", "4"])  # missing --k
    assert r.returncode == 1


# each subcommand's shortest argv -> the values it declares, as argparse dests;
# its handler reads every one of them.  build and rank-exp map each family or
# experiment to the values it declares.
OPTIONS = [
    (["eval", "-"], "input skip_zeros tolerance output"),
    (["simulate", "-"], "input skip_zeros tolerance output"),
    (["validate", "-"], "input tolerance output"),
    (["classify", "-"], "input tolerance output"),
    (["build"], {
        "cat": "family n output",
        "parity": "family n j output",
        "parity-fourier": "family n j output",
        "cluster1d": "family n output",
        "hamming": "family n k output",
        "coset-sigma1": "family matrix output",
        "coset-fourier": "family matrix output",
        "divisibility": "family n p output",
        "knill": "family output",
    }),
    (["convert", "-", "--to", "tree"], "input to n output"),
    (["balance", "-"], "input output"),
    (["mots", "--matrix", "-"], "matrix witness table convention output"),
    (["compile", "-"], "input output"),
    (["rank-exp"], {
        "subgroup": "experiment n trials seed output",
        "vandermonde": "experiment n k d c trials seed output",
        "erasure": "experiment matrix l trials seed output",
        "subset-sum": "experiment n m p gamma trials seed output",
        "chi": "experiment state mode seed output",
    }),
    (["vandermonde"], "n k d c check_weight output"),
]


def _subparsers(parser):
    import argparse
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


@pytest.mark.parametrize("argv, dests", OPTIONS, ids=[argv[0] for argv, _ in OPTIONS])
def test_each_subcommand_declares_only_what_it_reads(argv, dests):
    from statetrees.cli import build_parser
    cases = {(): dests} if isinstance(dests, str) else {(name,): want for name, want in dests.items()}
    if not isinstance(dests, str):  # the table covers every family or experiment
        assert set(_subparsers(_subparsers(build_parser()).choices[argv[0]]).choices) == set(dests)
    for name, want in cases.items():
        declared = set(vars(build_parser().parse_args(argv + list(name))))
        # func is the one handler: the subcommand's, the family's or the experiment's
        assert declared - {"command", "func"} == set(want.split())


def test_the_option_table_covers_every_subcommand():
    from statetrees.cli import build_parser
    assert set(_subparsers(build_parser()).choices) == {argv[0] for argv, _ in OPTIONS}


@pytest.mark.parametrize("argv", [
    ["eval", "cluster2.tree", "--seed", "5"],
    ["eval", "cluster2.tree", "--max-qubits", "20"],
    ["validate", "cluster2.tree", "--trials", "3"],
    ["mots", "--matrix", "parity4.mat", "--max-qubits", "20"],
    ["compile", "cluster2.tree", "--tolerance", "0.9"],
    ["compile", "cluster2.tree", "--max-qubits", "20"],
    ["balance", "-", "--convention", "free"],
    ["rank-exp", "chi", "--state", "cat.amps", "--max-qubits", "20"],
    ["rank-exp", "subgroup", "--gamma", "0.9"],
    ["rank-exp", "subgroup", "--mode", "sampled"],
    ["rank-exp", "erasure", "--matrix", "sub.mat", "--n", "8"],
    ["build", "cat", "--n", "3", "--k", "2"],
    ["build", "cat", "--n", "3", "--format", "amps"],
    ["build", "cat", "--matrix", "nofile"],
    ["build", "knill", "--n", "5"],
    ["build", "hamming", "--k", "2", "--j", "1"],
    ["vandermonde", "--tolerance", "1e-9"],
], ids=lambda argv: f"{argv[0]} {argv[-2]}")
def test_an_option_the_subcommand_does_not_read_is_a_usage_error(argv):
    r = run(argv, stdin="x\n")
    assert (r.returncode, r.stdout) == (2, "")
    # under the usage line of the parser that was handed the option
    prog = " ".join(argv[:2] if argv[0] in ("build", "rank-exp") else argv[:1])
    assert r.stderr.startswith(f"usage: statetrees {prog} [-h]")
    assert f"statetrees {prog}: error: unrecognized arguments: {argv[-2]} {argv[-1]}" in r.stderr


@pytest.mark.parametrize("text, message", [
    ("qubits 2 0\nprep -1 1 0 0 0\n", "wire -1 is outside 0..1"),
    ("qubits 2 0\nprep 5 1 0 0 0\n", "wire 5 is outside 0..1"),
    ("qubits 2 0\nprep 1 0 0 1 0\ncsub 0 2 {\nprep 1 1 0 0 0\n}\n",
     "csub polarity 2 is not 0 or 1"),
    ("qubits 2 0\nprep 1 0 0 1 0\nornot 1 0 1\n",
     "ornot target 1 is in its register or a control wire"),
    ("qubits 2 0\nprep 1 0 0 1 0\ncsub 0 1 {\nornot 0 1\n}\n",
     "ornot target 0 is in its register or a control wire"),
], ids=["negative-wire", "wire-past-width", "polarity", "target-in-register",
        "target-on-control"])
def test_simulate_malformed_wires(text, message):
    r = run(["simulate", "-"], stdin=text)
    assert (r.returncode, r.stdout, r.stderr) == (1, "", f"ERROR domain: {message}\n")


@pytest.mark.parametrize("text, error", [
    ("qubits -1 0\n", "ERROR parse: 1:8: qubit count -1 is negative"),
    ("qubits 2 -3 ; ancillas\n", "ERROR parse: 1:10: qubit count -3 is negative"),
    ("qubits 1 0\nu 1 0 2 0 0 0 0 0 2 0\n",
     "ERROR non-unitary: u on wires (0,): max |U U^+ - I| = 3.000e+00"),
    ("qubits 1 0\nprep 0 1 0 1 0\n",
     "ERROR non-unitary: prep on wire 0: |alpha|^2 + |beta|^2 = 2.0"),
    ("qubits 1 0\nu 1 0 nan 0 0 0 0 0 1 0\n",
     "ERROR non-unitary: u on wires (0,): max |U U^+ - I| = nan"),
], ids=["negative-data", "negative-ancilla", "u-not-unitary", "prep-not-normalized", "u-nan"])
def test_simulate_bad_header_and_gates(text, error):
    r = run(["simulate", "-"], stdin=text)
    assert (r.returncode, r.stdout, r.stderr) == (1, "", error + "\n")


@pytest.mark.parametrize("text, error", [
    ("-1 3\n", "1:1: row count -1 is negative"),
    ("2 -3\n", "1:3: column count -3 is negative"),
    ("; a comment\n\n  -2 4\n", "3:3: row count -2 is negative"),
    ("2 x\n", "1:1: matrix header must be 'k n', got '2 x'"),
    ("2 3\n101\n; a comment\n1x1\n", "4:1: row must be 3 chars of 0/1, got '1x1'"),
    ("2 3\n101\n", "1:1: expected 2 rows, found 1"),
    ("; a comment\n 2 3\n101\n", "2:2: expected 2 rows, found 1"),
    ("1 3\n101\nb 11\n", "3:1: b line must carry 1 chars of 0/1, got '11'"),
    ("; a comment\n1 3\n101\nb 11\n", "4:1: b line must carry 1 chars of 0/1, got '11'"),
    ("; a comment\n1 3\n101\n011\n", "4:1: unexpected trailing line '011'"),
    ("1 3\n101\nb 1\nextra\n", "4:1: unexpected trailing line 'extra'"),
    ("1 3\n101\nb 1\n; a comment\nextra\n", "5:1: unexpected trailing line 'extra'"),
], ids=["negative-rows", "negative-columns", "header-after-comment", "bad-header",
        "row-after-comment", "missing-row", "missing-row-after-comment", "long-b",
        "long-b-after-comment", "trailing-row-after-comment", "line-after-b",
        "line-after-b-and-comment"])
def test_mots_bad_matrix_text(tmp_path, text, error):
    mat = tmp_path / "bad.mat"
    mat.write_text(text)
    r = run(["mots", "--matrix", str(mat)])
    assert (r.returncode, r.stdout, r.stderr) == (1, "", f"ERROR parse: {error}\n")


def _product_text(amps) -> str:
    return "(* " + " ".join(f"(leaf {q} {a!r} {b!r})" for q, (a, b) in enumerate(amps, 1)) + ")"


def _chain_text(depth: int, bottom: str) -> str:
    """`depth` nested single-child + vertices (coefficient 1) over `bottom`."""
    return "(+ (1 " * depth + bottom + "))" * depth + "\n"


DEEP_AMPS = [(0.6, 0.8), (0.8, -0.6), (1.0, 0.0), (0.0, 1.0)] * 2


def _product_state(amps) -> np.ndarray:
    want = np.ones(1, dtype=complex)
    for a, b in amps:
        want = np.kron(want, [a, b])
    return want


def test_deep_chain_through_cli(tmp_path):
    from statetrees.dsl import parse_amplitudes
    from statetrees.formulas import formula_truth_values, parse_formula
    want = _product_state(DEEP_AMPS)
    chain = tmp_path / "chain.tree"
    chain.write_text(_chain_text(10_000, _product_text(DEEP_AMPS)))
    r = run(["eval", str(chain)])
    assert r.returncode == 0, r.stderr
    assert np.allclose(parse_amplitudes(r.stdout), want, atol=1e-12)
    r = run(["validate", str(chain)])
    assert (r.returncode, r.stdout) == (0, "path\trule\tmeasured\n")
    r = run(["classify", str(chain)])
    assert (r.returncode, r.stdout) == (0, "manifestly-orthogonal\n")
    r = run(["convert", str(chain), "--to", "formula"])
    assert r.returncode == 0, r.stderr
    assert np.allclose(formula_truth_values(parse_formula(r.stdout), 8), want, atol=1e-12)


def test_deep_tensor_nests_through_cli(tmp_path):
    # single-child tensors 10,000 deep, alone and alternating with
    # single-child + vertices: each level multiplies out the product below it
    leaf = "(leaf 1 0.6 0.8)"
    nests = {"tensor": "(* " * 10_000 + leaf + ")" * 10_000,
             "alternating": "(+ (1 (* " * 5_000 + leaf + ")))" * 5_000}
    for name, text in nests.items():
        tree = tmp_path / f"{name}.tree"
        tree.write_text(text + "\n")
        want = {"eval": "0 0.6 0\n1 0.8 0\n", "validate": "path\trule\tmeasured\n",
                "classify": "manifestly-orthogonal\n"}
        for cmd, stdout in want.items():
            r = run([cmd, str(tree)])
            assert (r.returncode, r.stdout, r.stderr) == (0, stdout, ""), (name, cmd)


def test_deep_chain_serialize_parse_round_trip():
    from statetrees.dsl import parse, serialize
    from statetrees.trees import Leaf, Plus, Tensor
    tree = parse(_chain_text(2000, _product_text([(0.6, 0.8)] * 8)))
    back = parse(serialize(tree))
    # compare with a stack: dataclass == recurses once per level
    todo = [(tree.root, back.root)]
    while todo:
        a, b = todo.pop()
        assert type(a) is type(b)
        if isinstance(a, Leaf):
            assert a == b
        elif isinstance(a, Tensor):
            assert len(a.children) == len(b.children)
            todo += zip(a.children, b.children)
        else:
            assert isinstance(a, Plus) and [c for c, _ in a.children] == [c for c, _ in b.children]
            todo += zip((ch for _, ch in a.children), (ch for _, ch in b.children))
    assert back.n == tree.n == 8


DEEP_FORMULA = "(+ (var 1) " * 5000 + "(var 2)" + ")" * 5000 + "\n"  # 5000 x1 + x2


def test_deep_formula_balances():
    from statetrees.formulas import (formula_depth, formula_size, formula_truth_values,
                                     parse_formula)
    r = run(["balance", "-"], stdin=DEEP_FORMULA)
    assert r.returncode == 0, r.stderr
    b = parse_formula(r.stdout)
    assert formula_size(b) == 5001
    assert formula_depth(b) <= 4 * np.log2(5001) + 8
    assert np.array_equal(formula_truth_values(b, 2), [0, 1, 5000, 5001])


def test_deep_formula_converts_to_a_tree():
    from statetrees.dsl import parse
    from statetrees.trees import evaluate, fidelity
    r = run(["convert", "-", "--to", "tree"], stdin=DEEP_FORMULA)
    assert r.returncode == 0, r.stderr
    want = np.array([0, 1, 5000, 5001]) / np.linalg.norm([0, 1, 5000, 5001])
    assert fidelity(evaluate(parse(r.stdout)), want.astype(complex)) >= 1 - 1e-9


def test_deep_formula_serialize_parse_round_trip():
    from statetrees.formulas import Var, parse_formula, serialize_formula
    f = parse_formula(DEEP_FORMULA)
    back = parse_formula(serialize_formula(f))
    # compare with a stack: dataclass == recurses once per level
    todo = [(f, back)]
    while todo:
        a, b = todo.pop()
        assert type(a) is type(b)
        if isinstance(a, Var):
            assert a == b
        else:
            todo += [(a.left, b.left), (a.right, b.right)]


def test_deep_chain_compiles_and_simulates(tmp_path):
    from statetrees.dsl import parse_amplitudes
    from statetrees.trees import fidelity
    chain, circ = tmp_path / "chain.tree", tmp_path / "chain.circ"
    chain.write_text(_chain_text(10_000, _product_text(DEEP_AMPS)))
    r = run(["compile", str(chain), "-o", str(circ)])
    assert (r.returncode, r.stderr) == (0, "")
    n_data, n_anc = (int(x) for x in circ.read_text().split("\n", 1)[0].split()[1:])
    r = run(["simulate", str(circ)])
    assert r.returncode == 0, r.stderr
    v = parse_amplitudes(r.stdout).reshape(1 << n_data, 1 << n_anc)
    assert (n_data, n_anc) == (8, 0) and np.vdot(v[:, 1:], v[:, 1:]).real == 0
    assert fidelity(v[:, 0], _product_state(DEEP_AMPS)) >= 1 - 1e-9


def test_deep_csub_text_simulates():
    from statetrees.dsl import parse_amplitudes
    depth = 10_000
    text = "qubits 2 0\nprep 0 0 0 1 0\n" + "csub 0 1 {\n" * depth + "prep 1 0 0 1 0\n" + "}\n" * depth
    r = run(["simulate", "-"], stdin=text)
    assert r.returncode == 0, r.stderr
    assert np.array_equal(parse_amplitudes(r.stdout), [0, 0, 0, 1])


def _comb_text(depth: int) -> str:
    """A 1-qubit comb of `depth` + vertices, each over a leaf orthogonal to the comb below it."""
    from statetrees.dsl import serialize
    from statetrees.trees import Leaf, Plus, StateTree
    node, (x, y) = Leaf(1, 1.0, 0.0), (1.0, 0.0)
    for _ in range(depth):
        node = Plus(((0.6, Leaf(1, -y, x)), (0.8, node)))
        x, y = 0.8 * x - 0.6 * y, 0.6 * x + 0.8 * y
    return serialize(StateTree(1, node))


def test_deep_comb_round_trips_and_is_too_wide_to_simulate(tmp_path):
    from statetrees.circuits import compile_tree, format_circuit, gate_count, parse_circuit
    from statetrees.dsl import parse
    comb, circ = tmp_path / "comb.tree", tmp_path / "comb.circ"
    comb.write_text(_comb_text(2000))
    r = run(["compile", str(comb), "-o", str(circ)])
    assert (r.returncode, r.stderr) == (0, "")
    c = parse_circuit(circ.read_text())
    assert (c.n_data, c.n_ancilla, gate_count(c)) == (1, 2000, 4 * 2000 + 1)
    assert gate_count(c) == gate_count(compile_tree(parse(comb.read_text())))
    assert format_circuit(c) == circ.read_text()
    r = run(["simulate", str(circ)])
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == "ERROR oversize: 2001 wires exceed the dense cap 20\n"


def test_wide_hamming_build_halves_to_a_shallow_tree():
    from statetrees.dsl import parse
    from statetrees.trees import depth, tree_size
    r = run(["build", "hamming", "--n", "2047", "--k", "0"])
    assert (r.returncode, r.stderr) == (0, "")
    tree = parse(r.stdout)
    assert (tree.n, tree_size(tree), depth(tree)) == (2047, 2047, 11)


@pytest.mark.parametrize("args, message", [
    (["hamming", "--n", "0", "--k", "0"], "n must be positive"),
    (["hamming", "--n", "-3", "--k", "0"], "n must be positive"),
    (["parity", "--n", "0"], "n must be positive"),
    (["cat", "--n", "0"], "n must be positive"),
    (["cluster1d", "--n", "1"], "n must be at least 2"),
])
def test_builds_with_too_few_qubits_are_one_domain_error(args, message):
    r = run(["build"] + args)
    assert (r.returncode, r.stdout, r.stderr) == (1, "", f"ERROR domain: {message}\n")


@pytest.mark.parametrize("args, name", [
    (["hamming", "--n", "128", "--k", "64"], "hamming(128, 64)"),
    (["parity", "--n", "10000"], "parity(10000)"),
    (["cluster1d", "--n", "64"], "cluster1d(64)"),
    (["cat", "--n", "600000"], "cat(600000)"),
    (["parity-fourier", "--n", "600000"], "parity-fourier(600000)"),
    (["divisibility", "--n", "40", "--p", "30000"], "divisibility(40, 30000)"),
    # refused before the 12 MB int 1 << n is formed
    (["divisibility", "--n", "100000000", "--p", "2"], "divisibility(100000000, 2)"),
    # 2^20 elements of 20 leaves each
    (["coset-sigma1", "--matrix", "0 20\n"], "coset-sigma1(0 x 20)"),
    # 2^17 Fourier terms of 17 leaves each
    (["coset-fourier", "--matrix", "17 17\n" + "".join(f"{1 << i:017b}\n" for i in range(17))],
     "coset-fourier(17 x 17)"),
])
def test_oversize_builds_are_refused_before_they_start(tmp_path, args, name):
    # hamming(128, 64) alone would be 38,776,320 leaves
    if args[1] == "--matrix":  # the matrix text goes to a file
        mat = tmp_path / "big.mat"
        mat.write_text(args[2])
        args = args[:2] + [str(mat)]
    r = run(["build"] + args)
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == f"ERROR oversize: {name} would have more than 1048576 leaves\n"


def test_divisibility_whose_coefficient_overflows_is_one_error_line():
    # 2050 leaves, but sqrt(2^1024) is past the largest float
    r = run(["build", "divisibility", "--n", "1025", "--p", "2"])
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == "ERROR oversize: divisibility(1025, 2) coefficient overflows a float\n"


def test_cluster1d_at_a_non_power_of_two_validates():
    built = run(["build", "cluster1d", "--n", "6"])
    assert built.returncode == 0
    r = run(["validate", "-"], stdin=built.stdout)
    assert (r.returncode, r.stdout, r.stderr) == (0, "path\trule\tmeasured\n", "")


@pytest.mark.parametrize("command", ["classify", "compile"])
@pytest.mark.parametrize("text, message", [
    ("(+ (0.6 (leaf 2 1 0)) (0.8 (leaf 1 0 1)))\n", "plus children cover different qubit sets"),
    ("(* (leaf 1 1 0) (leaf 3 1 0))\n", "root does not cover all qubits 1..n"),
])
def test_structurally_invalid_trees_are_refused(command, text, message):
    r = run([command, "-"], stdin=text)
    assert (r.returncode, r.stdout, r.stderr) == (1, "", f"ERROR invalid-tree: {message}\n")


def test_compile_of_an_all_zero_plus_is_one_error_line():
    r = run(["compile", "-"], stdin="(+ (0 (leaf 1 1 0)))\n")
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == "ERROR invalid-tree: plus vertex with all coefficients zero\n"


# finite amplitudes and norms whose inner products overflow: the gram is inf
OVERFLOWING_PRODUCTS = "(+ (0.6 (leaf 1 1e200 0)) (0.8 (leaf 1 1e200 1e200)))\n"
# no + vertex, but the amplitudes overflow
OVERFLOWING_AMPLITUDES = "(* (leaf 1 1e200 0) (leaf 2 1e200 0))\n"
# finite amplitudes whose norm, about 2.1e308, overflows
OVERFLOWING_NORM = "(leaf 1 1.5e308 1.5e308)\n"
# disjoint supports: the vector is finite, the children's norms^2 overflow
OVERFLOWING_DISJOINT = "(+ (0.6 (leaf 1 1e200 0)) (0.8 (leaf 1 0 1e200)))\n"


@pytest.mark.parametrize("text, command", [
    *((text, command) for text in (OVERFLOWING_PRODUCTS, OVERFLOWING_AMPLITUDES, OVERFLOWING_DISJOINT)
      for command in ("classify", "compile")),
    (OVERFLOWING_AMPLITUDES, "validate"),
    (OVERFLOWING_NORM, "validate"),
    (OVERFLOWING_AMPLITUDES, "eval"),  # eval takes no inner product
])
def test_an_overflowing_tree_is_one_domain_error_line(command, text):
    r = run([command, "-"], stdin=text)
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == "ERROR domain: amplitudes or their inner products overflow a float\n"


def test_classify_reads_norms_whose_squares_are_near_the_float_limit():
    # each norm^2, about 1.7e308, is finite, but above a quarter of the largest float
    r = run(["classify", "-"], stdin="(+ (0.6 (leaf 1 1.3e154 0)) (0.8 (leaf 1 0 1.3e154)))\n")
    assert (r.returncode, r.stdout, r.stderr) == (0, "manifestly-orthogonal\n", "")


@pytest.mark.parametrize("text, listing", [
    (OVERFLOWING_PRODUCTS, "0\tvertex-not-normalized\tnorm 1e+200\n"
                           "1\tvertex-not-normalized\tnorm 1.414213562373095e+200\n"
                           "root\tvertex-not-normalized\tnorm 1.61245154965971e+200\n"),
    ("(leaf 1 1e200 0)\n", "root\tvertex-not-normalized\tnorm 1e+200\n"),
    ("(+ (0.6 (leaf 1 1e200 0)) (0.8 (leaf 1 0 1)))\n",
     "0\tvertex-not-normalized\tnorm 1e+200\n"
     "root\tvertex-not-normalized\tnorm 5.999999999999999e+199\n"),
])
def test_validate_reads_a_finite_norm_whose_squares_overflow(text, listing):
    r = run(["validate", "-"], stdin=text)
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout == "path\trule\tmeasured\n" + listing


def test_eval_lists_finite_amplitudes_whose_inner_products_overflow():
    r = run(["eval", "-"], stdin=OVERFLOWING_PRODUCTS)
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout == "0 1.4000000000000001e+200 0\n1 8e+199 0\n"


def test_chi_refuses_an_amplitude_that_overflows(tmp_path):
    state = tmp_path / "huge.amp"
    state.write_text("0 1e999 0\n1 0 0\n")
    r = run(["rank-exp", "chi", "--state", str(state)])
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == "ERROR parse: 1:1: amplitude numbers out of range in '0 1e999 0'\n"


def _one_error_line(r, code: str) -> None:
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr.startswith(f"ERROR {code}: ") and r.stderr.count("\n") == 1, r.stderr


def test_io_failures_are_one_error_line(tmp_path):
    (tmp_path / "adir").mkdir()
    adir = tmp_path / "adir"
    r = run(["eval", str(adir)])
    assert (r.returncode, r.stdout, r.stderr) == (1, "", f"ERROR domain: [Errno 21] Is a directory: '{adir}'\n")
    missing = tmp_path / "no" / "such"
    r = run(["build", "cat", "--n", "3", "-o", str(missing / "x.tree")])
    _one_error_line(r, "domain")
    assert "No such file or directory" in r.stderr
    mat = tmp_path / "p.mat"
    mat.write_text("1 4\n1111\n")
    r = run(["mots", "--matrix", str(mat), "--witness", str(missing / "w")])
    _one_error_line(r, "domain")
    assert "No such file or directory" in r.stderr


def _stdout_env(buffered: bool) -> dict:
    # a buffered stdout keeps the bytes of a failed write, and the interpreter
    # tries them again at exit; an unbuffered one fails in the write itself
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return env if buffered else dict(env, PYTHONUNBUFFERED="1")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("buffered", [True, False])
def test_a_full_stdout_is_one_error_line(buffered):
    with open("/dev/full", "w") as full:
        r = subprocess.run(CLI + ["build", "cat", "--n", "3"], stdout=full, stderr=subprocess.PIPE,
                           text=True, env=_stdout_env(buffered))
    assert (r.returncode, r.stderr) == (1, "ERROR domain: [Errno 28] No space left on device\n")


@pytest.mark.parametrize("buffered", [True, False])
def test_a_closed_stdout_pipe_exits_quietly(buffered):
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    try:
        r = subprocess.run(CLI + ["build", "cat", "--n", "3"], stdout=write_end,
                           stderr=subprocess.PIPE, text=True, env=_stdout_env(buffered))
    finally:
        os.close(write_end)
    assert (r.returncode, r.stderr) == (1, "")


@pytest.mark.parametrize("width", [21, 50])
def test_a_listing_wider_than_the_dense_cap_is_refused(tmp_path, width):
    # 50 bits would ask numpy for a 16 PiB vector
    state = tmp_path / "wide.amps"
    state.write_text("0" * width + " 1 0\n")
    t = time.perf_counter()
    r = run(["rank-exp", "chi", "--state", str(state)], timeout=30)
    assert time.perf_counter() - t < 5
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == f"ERROR oversize: {width}-bit amplitude listing exceeds the dense cap 20\n"


def test_subset_sum_refuses_a_p_past_the_cap_before_testing_it():
    # trial division up to sqrt(2^61 - 1) would not finish
    t = time.perf_counter()
    r = run(["rank-exp", "subset-sum", "--p", str((1 << 61) - 1)], timeout=30)
    assert time.perf_counter() - t < 5
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == "ERROR oversize: p=2305843009213693951 exceeds the cap 2^40\n"
    r = run(["rank-exp", "subset-sum", "--p", str((1 << 40) - 87), "--trials", "3"])  # prime
    assert (r.returncode, r.stderr) == (0, "")


@pytest.mark.parametrize("formula, flags, n", [
    ("(var 1)\n", ["--n", "100000000"], 100000000),
    ("(* (var 300000000) (var 2))\n", [], 300000000),  # n defaults to the largest variable
    ("(var 1)\n", ["--n", str((1 << 15) + 1)], (1 << 15) + 1),
])
def test_convert_refuses_more_qubits_than_the_cap(formula, flags, n):
    t = time.perf_counter()
    r = run(["convert", "-", "--to", "tree"] + flags, stdin=formula, timeout=30)
    assert time.perf_counter() - t < 5
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == f"ERROR oversize: a tree over {n} qubits exceeds the cap 2^15\n"


@pytest.mark.parametrize("formula, flags", [
    ("(var 1)\n", ["--n", str(1 << 15)]),
    # 2000 + vertices, each padding one side with qubit 2^15: a scan over
    # every qubit below the widest took minutes here
    ("(+ (var 1) " * 2000 + f"(var {1 << 15})" + ")" * 2000 + "\n", []),
])
def test_convert_pads_up_to_the_cap(formula, flags):
    from statetrees.dsl import parse
    t = time.perf_counter()
    r = run(["convert", "-", "--to", "tree"] + flags, stdin=formula, timeout=60)
    assert time.perf_counter() - t < 5
    assert (r.returncode, r.stderr) == (0, "")
    assert parse(r.stdout).n == 1 << 15


@pytest.mark.parametrize("formula, flags, message", [
    # rescaling would build the 2^40-entry vector of the + vertex
    ("(+ " + "".join(f"(* (var {i}) " for i in range(1, 40)) + "(var 40)" + ")" * 39 + " (const 1))\n",
     [],
     "ERROR oversize: a + vertex over 40 qubits exceeds the dense cap 20\n"),
    # 2000 + vertices over distinct variables: padding them all grew past 4 GiB
    ("".join(f"(+ (var {i}) " for i in range(1, 2001)) + f"(var {1 << 15})" + ")" * 2000 + "\n", [],
     "ERROR oversize: a + vertex over 21 qubits exceeds the dense cap 20\n"),
    ("(const 1)\n", ["--n", "-5"], "ERROR domain: n must be at least 1\n"),
])
def test_convert_refuses_a_wide_plus_vertex_and_a_negative_n(formula, flags, message):
    t = time.perf_counter()
    r = run(["convert", "-", "--to", "tree"] + flags, stdin=formula, timeout=30)
    assert time.perf_counter() - t < 5
    assert (r.returncode, r.stdout, r.stderr) == (1, "", message)


def test_subset_sum_refuses_work_past_the_budget():
    t = time.perf_counter()
    r = run(["rank-exp", "subset-sum", "--n", "24", "--m", "20", "--p", "1000000007", "--trials", "2"],
            timeout=30)
    assert time.perf_counter() - t < 5
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == "ERROR oversize: trials * min(2^m, p) = 2097152 exceeds the cap 2^20\n"
