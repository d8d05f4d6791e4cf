"""Command-line front end: file-based, seeded, deterministic.

Subcommands: eval, validate, classify, build, convert, balance, mots,
compile, simulate, rank-exp, vandermonde.  '-' means stdin/stdout.
Inputs that do not exist on disk are also looked up in the fixture
directory ($STATETREES_FIXTURES, defaulting to the trees bundled with
the package).  Domain failures print 'ERROR <code>: <message>' and exit
with status 1; usage errors exit with status 2.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import builders, circuits, dsl, formulas, gf2, mots, rank, trees
from .codes import VandermondeParams, build_binary_vandermonde, min_nonzero_image_weight
from .errors import OversizeError, StateTreesError

FIXTURE_ENV = "STATETREES_FIXTURES"


def fixture_dir() -> Path:
    env = os.environ.get(FIXTURE_ENV)
    if env:
        return Path(env)
    return Path(__file__).parent / "fixtures"


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    p = Path(path)
    if not p.exists():
        alt = fixture_dir() / path
        if alt.exists():
            p = alt
        else:
            raise StateTreesError(f"no such input file: {path}")
    return p.read_text()


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _tsv(header: list[str], rows: list[list]) -> str:
    def cell(x) -> str:
        if isinstance(x, float):
            return dsl.fmt_float(x)
        return str(x)

    lines = ["\t".join(header)]
    lines += ["\t".join(cell(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def _report_tsv(rep: dict) -> str:
    keys = list(rep.keys())
    return _tsv(keys, [[rep[k] for k in keys]])


# ---------------------------------------------------------------------------
# subcommands


def _cmd_eval(args) -> int:
    tree = dsl.parse(_read(args.input))
    v = trees.evaluate(tree, max_qubits=args.max_qubits)
    _write(args.output, dsl.format_amplitudes(v, skip_zeros=args.skip_zeros,
                                              tol=args.tolerance))
    return 0


def _cmd_validate(args) -> int:
    tree = dsl.parse(_read(args.input))
    problems = trees.validate(tree, max_qubits=args.max_qubits, tol=args.tolerance)
    rows = [[("/".join(str(i) for i in v.path) or "root"), v.rule, v.measured]
            for v in problems]
    _write(args.output, _tsv(["path", "rule", "measured"], rows))
    return 0


def _cmd_classify(args) -> int:
    tree = dsl.parse(_read(args.input))
    label = trees.classify_tree(tree, max_qubits=args.max_qubits, tol=args.tolerance)
    _write(args.output, label + "\n")
    return 0


def _build_tree(args) -> trees.StateTree:
    fam = args.family
    if fam == "cat":
        return builders.build_cat(args.n)
    if fam == "parity":
        return builders.build_parity(args.n, args.j)
    if fam == "parity-fourier":
        return builders.build_parity_fourier(args.n, args.j)
    if fam == "cluster1d":
        return builders.build_cluster1d(args.n)
    if fam == "hamming":
        if args.k is None:
            raise StateTreesError("hamming needs --k")
        return builders.build_hamming(args.n, args.k)
    if fam == "divisibility":
        if args.p is None:
            raise StateTreesError("divisibility needs --p")
        return builders.build_divisibility_tree(args.n, args.p)
    if fam == "knill":
        return builders.build_knill_tree()
    if fam in ("coset-sigma1", "coset-fourier"):
        if args.matrix is None:
            raise StateTreesError(f"{fam} needs --matrix FILE")
        a, b = gf2.parse_matrix(_read(args.matrix))
        coset = gf2.Coset(a, b or 0)
        if fam == "coset-sigma1":
            return builders.build_coset_sigma1(coset)
        return builders.build_coset_fourier_otree(coset)
    raise StateTreesError(f"unknown family {fam!r}")


def _cmd_build(args) -> int:
    tree = _build_tree(args)
    if args.format == "amps":
        v = trees.evaluate(tree, max_qubits=args.max_qubits)
        _write(args.output, dsl.format_amplitudes(v, skip_zeros=args.skip_zeros,
                                                  tol=args.tolerance))
    else:
        _write(args.output, dsl.serialize(tree))
    return 0


def _cmd_convert(args) -> int:
    text = _read(args.input)
    if args.to == "formula":
        tree = dsl.parse(text)
        _write(args.output, formulas.serialize_formula(formulas.tree_to_formula(tree)))
    else:
        f = formulas.parse_formula(text)
        fv = formulas.formula_vars(f)
        n = args.n if args.n is not None else (max(fv) if fv else 1)
        _write(args.output, dsl.serialize(formulas.formula_to_tree(f, n)))
    return 0


def _cmd_balance(args) -> int:
    f = formulas.parse_formula(_read(args.input))
    _write(args.output, formulas.serialize_formula(formulas.balance(f)))
    return 0


def _cmd_mots(args) -> int:
    a, b = gf2.parse_matrix(_read(args.matrix))
    need_witness = args.witness is not None
    res = mots.mots_coset(a, convention=args.convention, b=b or 0,
                          witness=need_witness, table=True)
    if need_witness:
        Path(args.witness).write_text(dsl.serialize(res.witness))
    if args.table is not None:
        rows = [[format(m, f"0{a.n}b"), v, (format(i, f"0{a.n}b") if i is not None else "-")]
                for m, (v, i) in sorted(res.table.items())]
        Path(args.table).write_text(_tsv(["columns", "value", "argmin"], rows))
    rank = gf2.rank_gf2(a)
    out = _tsv(["key", "value"], [
        ["value", res.value],
        ["convention", res.convention],
        ["rows", a.k],
        ["cols", a.n],
        ["rank", rank],
        ["coset_size", 1 << (a.n - rank)],
    ])
    _write(args.output, out)
    return 0


def _cmd_compile(args) -> int:
    tree = dsl.parse(_read(args.input))
    circ = circuits.compile_tree(tree, max_qubits=args.max_qubits)
    _write(args.output, circuits.format_circuit(circ))
    return 0


def _cmd_simulate(args) -> int:
    circ = circuits.parse_circuit(_read(args.input))
    v = circuits.simulate(circ, max_width=args.max_qubits, tol=args.tolerance)
    _write(args.output, dsl.format_amplitudes(v, skip_zeros=args.skip_zeros,
                                              tol=args.tolerance))
    return 0


def _cmd_rank_exp(args) -> int:
    kind = args.experiment
    if kind == "subgroup":
        rep = rank.subgroup_rank_experiment(args.n, args.trials, args.seed)
    elif kind == "vandermonde":
        params = VandermondeParams(args.n, args.k, args.d, args.c)
        rep = rank.vandermonde_rank_experiment(params, args.trials, args.seed)
    elif kind == "erasure":
        if args.matrix is None:
            raise StateTreesError("erasure needs --matrix FILE")
        a, b = gf2.parse_matrix(_read(args.matrix))
        rep = rank.erasure_recoverability_check(gf2.Coset(a, b or 0), args.l,
                                                args.trials, args.seed)
    elif kind == "subset-sum":
        rep = rank.subset_sum_coverage(args.n, args.m, args.p, args.gamma,
                                       args.trials, args.seed)
    elif kind == "chi":
        if args.state is None:
            raise StateTreesError("chi needs --state FILE (amplitude listing)")
        v = dsl.parse_amplitudes(_read(args.state))
        rep = {"n": int(np.log2(len(v))), "chi": rank.chi_max(v, mode=args.mode, seed=args.seed)}
    else:  # pragma: no cover - argparse restricts choices
        raise StateTreesError(f"unknown experiment {kind!r}")
    _write(args.output, _report_tsv(rep))
    return 0


def _cmd_vandermonde(args) -> int:
    params = VandermondeParams(args.n, args.k, args.d, args.c)
    vbin = build_binary_vandermonde(params)
    if args.check_weight:
        w = min_nonzero_image_weight(vbin)
        rep = {
            "rows": vbin.k,
            "cols": vbin.n,
            "min_nonzero_image_weight": w,
            "guarantee": (params.n - params.k) * (1 << (params.d - 1)),
        }
        _write(args.output, _report_tsv(rep))
    else:
        _write(args.output, gf2.format_matrix(vbin))
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--max-qubits", type=int, default=20)
    p.add_argument("--convention", choices=list(mots.CONVENTIONS), default="classical")
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.add_argument("-o", "--output", default=None, help="output file ('-' = stdout)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="statetrees",
        description="State trees, multilinear formulas, coset states and their size measures.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="tree DSL -> amplitude listing")
    p.add_argument("input")
    p.add_argument("--skip-zeros", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("validate", help="report invariant violations of a tree")
    p.add_argument("input")
    _add_common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("classify", help="general / orthogonal / manifestly-orthogonal")
    p.add_argument("input")
    _add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("build", help="emit a named state family")
    p.add_argument("family", choices=["cat", "parity", "parity-fourier", "cluster1d",
                                      "hamming", "coset-sigma1", "coset-fourier",
                                      "divisibility", "knill"])
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--j", type=int, default=0, help="parity bit")
    p.add_argument("--k", type=int, default=None, help="hamming weight")
    p.add_argument("--p", type=int, default=None, help="divisor")
    p.add_argument("--matrix", default=None, help="matrix file for coset families")
    p.add_argument("--format", choices=["tree", "amps"], default="tree")
    p.add_argument("--skip-zeros", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("convert", help="tree DSL <-> formula DSL")
    p.add_argument("input")
    p.add_argument("--to", choices=["formula", "tree"], required=True)
    p.add_argument("--n", type=int, default=None, help="qubit count for formula->tree")
    _add_common(p)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("balance", help="depth-reduce a multilinear formula")
    p.add_argument("input")
    _add_common(p)
    p.set_defaults(func=_cmd_balance)

    p = sub.add_parser("mots", help="exact manifestly-orthogonal tree size of a coset")
    p.add_argument("--matrix", required=True)
    p.add_argument("--witness", default=None, help="write the witness tree here")
    p.add_argument("--table", default=None, help="write the DP table here (TSV)")
    _add_common(p)
    p.set_defaults(func=_cmd_mots)

    p = sub.add_parser("compile", help="orthogonal tree -> preparation circuit")
    p.add_argument("input")
    _add_common(p)
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("simulate", help="run a circuit on |0..0>")
    p.add_argument("input")
    p.add_argument("--skip-zeros", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("rank-exp", help="rank-statistics experiments")
    p.add_argument("experiment", choices=["subgroup", "vandermonde", "erasure",
                                          "subset-sum", "chi"])
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--l", type=int, default=4)
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--c", type=int, default=8)
    p.add_argument("--m", type=int, default=8)
    p.add_argument("--p", type=int, default=101)
    p.add_argument("--gamma", type=float, default=0.2)
    p.add_argument("--matrix", default=None)
    p.add_argument("--state", default=None)
    p.add_argument("--mode", choices=["auto", "exhaustive", "sampled"], default="auto")
    _add_common(p)
    p.set_defaults(func=_cmd_rank_exp)

    p = sub.add_parser("vandermonde", help="emit the binary Vandermonde matrix")
    p.add_argument("--n", type=int, default=15)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--c", type=int, default=8)
    p.add_argument("--check-weight", action="store_true",
                   help="report the exhaustive minimum nonzero image weight instead")
    _add_common(p)
    p.set_defaults(func=_cmd_vandermonde)

    return ap


def dispatch(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StateTreesError as e:
        print(f"ERROR {e.code}: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"ERROR domain: {e}", file=sys.stderr)
        return 1
    except RecursionError:  # the formula DSL, balance and compile still recurse
        print(f"ERROR {OversizeError.code}: input nests too deeply for this command",
              file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = dispatch(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # downstream closed the pipe (e.g. | head); exit quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
