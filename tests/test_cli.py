"""End-to-end CLI: pipes, formats, determinism, error codes."""

from __future__ import annotations

import subprocess
import sys

import numpy as np

CLI = [sys.executable, "-m", "statetrees.cli"]


def run(args, stdin: str = "", cwd=None):
    return subprocess.run(CLI + args, input=stdin, capture_output=True,
                          text=True, cwd=cwd)


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
    amps = run(["build", "cat", "--n", "4", "--format", "amps"]).stdout
    state = tmp_path / "cat.amps"
    state.write_text(amps)
    r = run(["rank-exp", "chi", "--state", str(state)])
    assert r.returncode == 0
    assert r.stdout.splitlines()[1].split("\t")[1] == "2"


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


def _product_text(amps) -> str:
    return "(* " + " ".join(f"(leaf {q} {a!r} {b!r})" for q, (a, b) in enumerate(amps, 1)) + ")"


def _chain_text(depth: int, bottom: str) -> str:
    """`depth` nested single-child + vertices (coefficient 1) over `bottom`."""
    return "(+ (1 " * depth + bottom + "))" * depth + "\n"


def test_deep_chain_through_cli(tmp_path):
    from statetrees.dsl import parse_amplitudes
    from statetrees.formulas import formula_truth_values, parse_formula
    amps = [(0.6, 0.8), (0.8, -0.6), (1.0, 0.0), (0.0, 1.0)] * 2
    want = np.ones(1, dtype=complex)
    for a, b in amps:
        want = np.kron(want, [a, b])
    chain = tmp_path / "chain.tree"
    chain.write_text(_chain_text(10_000, _product_text(amps)))
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


def test_deep_formula_is_a_clean_error():
    deep = "(+ (var 1) " * 5000 + "(var 2)" + ")" * 5000 + "\n"
    r = run(["balance", "-"], stdin=deep)
    assert r.returncode == 1
    assert r.stderr == "ERROR oversize: input nests too deeply for this command\n"
