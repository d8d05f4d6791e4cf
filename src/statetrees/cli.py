"""Command-line front end: file-based, seeded, deterministic.

Subcommands: eval, validate, classify, build, convert, balance, mots,
compile, simulate, rank-exp, vandermonde.  '-' means stdin/stdout.
Inputs that do not exist on disk are also looked up in the fixture
directory ($STATETREES_FIXTURES, defaulting to the trees bundled with
the package).  Every subcommand returns its output text and dispatch()
writes it.  Domain and I/O failures print 'ERROR <code>: <message>' and
exit with status 1; usage errors exit with status 2.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from itertools import product
from pathlib import Path

import numpy as np

from . import builders, circuits, dsl, formulas, gf2, mots, rank, trees
from .codes import VandermondeParams, build_binary_vandermonde, min_nonzero_image_weight
from .errors import StateTreesError

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
        sys.stdout.flush()  # so that a full disk or a closed pipe fails here
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
# subcommands: each returns the text its -o receives


def _tree(args) -> trees.StateTree:
    return dsl.parse(_read(args.input))


def _amplitudes(args, v: np.ndarray) -> str:
    return dsl.format_amplitudes(v, skip_zeros=args.skip_zeros, tol=args.tolerance)


def _validate(args) -> str:
    problems = trees.validate(_tree(args), tol=args.tolerance)
    rows = [[("/".join(str(i) for i in v.path) or "root"), v.rule, v.measured]
            for v in problems]
    return _tsv(["path", "rule", "measured"], rows)


def _required(value, message: str):
    """A flag's value that the handler cannot do without."""
    if value is None:
        raise StateTreesError(message)
    return value


def _coset(path: str | None, name: str) -> gf2.Coset:
    a, b = gf2.parse_matrix(_read(_required(path, f"{name} needs --matrix FILE")))
    return gf2.Coset(a, b or 0)


def _convert(args) -> str:
    text = _read(args.input)
    if args.to == "formula":
        return formulas.serialize_formula(formulas.tree_to_formula(dsl.parse(text)))
    f = formulas.parse_formula(text)
    fv = formulas.formula_vars(f)
    n = args.n if args.n is not None else (max(fv) if fv else 1)
    return dsl.serialize(formulas.formula_to_tree(f, n))


def _dp_table_text(table: mots.DpTable) -> str:
    """The TSV of a dp table: one row per nonempty column mask, ascending,
    with the mask and its argmin as n-bit strings ('-' for one column)."""
    n = len(table.val).bit_length() - 1
    names = list(map("".join, product(*dsl._bit_tables(n))))
    argmin = [names[i] for i in table.arg.tolist()]
    for j in range(n):
        argmin[1 << j] = "-"
    rows = zip(names[1:], table.val[1:].tolist(), argmin[1:])
    return "columns\tvalue\targmin\n" + "".join([f"{m}\t{v}\t{i}\n" for m, v, i in rows])


def _mots(args) -> str:
    """The key/value TSV; the --witness and --table files are written here."""
    a, b = gf2.parse_matrix(_read(args.matrix))
    need_witness = args.witness is not None
    res = mots.mots_coset(a, convention=args.convention, b=b or 0,
                          witness=need_witness, table=args.table is not None)
    if need_witness:
        Path(args.witness).write_text(dsl.serialize(res.witness))
    if args.table is not None:
        Path(args.table).write_text(_dp_table_text(res.table))
    rank = gf2.rank_gf2(a)
    return _tsv(["key", "value"], [
        ["value", res.value],
        ["convention", res.convention],
        ["rows", a.k],
        ["cols", a.n],
        ["rank", rank],
        ["coset_size", 1 << (a.n - rank)],
    ])


def _chi_report(args) -> dict:
    state = _required(args.state, "chi needs --state FILE (amplitude listing)")
    v = dsl.parse_amplitudes(_read(state))
    return {"n": int(np.log2(len(v))), "chi": rank.chi_max(v, mode=args.mode, seed=args.seed)}


def _vandermonde(args) -> str:
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
        return _report_tsv(rep)
    else:
        return gf2.format_matrix(vbin)


# ---------------------------------------------------------------------------
# parser


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser: an option it does not declare is a usage
    error under its own usage line, not the top-level one."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and reused by every
    dispatch(): its 26 parsers take a few milliseconds to make, and
    parsing leaves them unchanged."""
    ap = argparse.ArgumentParser(
        prog="statetrees",
        description="State trees, multilinear formulas, coset states and their size measures.")
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_Subcommand)

    def shared(*flags, **kw) -> argparse.ArgumentParser:
        """A parent parser declaring one argument, for the parsers that read it."""
        p = argparse.ArgumentParser(add_help=False)
        p.add_argument(*flags, **kw)
        return p

    source = shared("input")
    zeros = shared("--skip-zeros", action="store_true")
    tol = shared("--tolerance", type=float, default=trees.TOLERANCE)
    out = shared("-o", "--output", default=None, help="output file ('-' = stdout)")

    def command(name: str, func, helptext: str, *parents) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=parents, help=helptext)
        p.set_defaults(func=func)
        return p

    command("eval", lambda a: _amplitudes(a, trees.evaluate(_tree(a))),
            "tree DSL -> amplitude listing", source, zeros, tol, out)
    command("validate", _validate, "report invariant violations of a tree", source, tol, out)
    command("classify", lambda a: trees.classify_tree(_tree(a), tol=a.tolerance) + "\n",
            "general / orthogonal / manifestly-orthogonal", source, tol, out)

    # each family declares the flags its builder reads, and -o, and sets func
    families = command("build", None, "emit a named state family").add_subparsers(
        dest="family", required=True)
    qubits = shared("--n", type=int, default=4)
    bit = shared("--j", type=int, default=0, help="parity bit")
    matrix = shared("--matrix", default=None, help="matrix file for coset families")

    def family(name: str, make, *parents) -> None:
        families.add_parser(name, parents=parents + (out,)).set_defaults(
            func=lambda a: dsl.serialize(make(a)))

    family("cat", lambda a: builders.build_cat(a.n), qubits)
    family("parity", lambda a: builders.build_parity(a.n, a.j), qubits, bit)
    family("parity-fourier", lambda a: builders.build_parity_fourier(a.n, a.j), qubits, bit)
    family("cluster1d", lambda a: builders.build_cluster1d(a.n), qubits)
    family("hamming", lambda a: builders.build_hamming(a.n, _required(a.k, "hamming needs --k")),
           qubits, shared("--k", type=int, default=None, help="hamming weight"))
    family("coset-sigma1", lambda a: builders.build_coset_sigma1(_coset(a.matrix, "coset-sigma1")),
           matrix)
    family("coset-fourier",
           lambda a: builders.build_coset_fourier_otree(_coset(a.matrix, "coset-fourier")), matrix)
    family("divisibility", lambda a: builders.build_divisibility_tree(
        a.n, _required(a.p, "divisibility needs --p")),
        qubits, shared("--p", type=int, default=None, help="divisor"))
    family("knill", lambda a: builders.build_knill_tree())

    p = command("convert", _convert, "tree DSL <-> formula DSL", source, out)
    p.add_argument("--to", choices=["formula", "tree"], required=True)
    p.add_argument("--n", type=int, default=None, help="qubit count for formula->tree")

    command("balance", lambda a: formulas.serialize_formula(
        formulas.balance(formulas.parse_formula(_read(a.input)))),
        "depth-reduce a multilinear formula", source, out)

    p = command("mots", _mots, "exact manifestly-orthogonal tree size of a coset", out)
    p.add_argument("--matrix", required=True)
    p.add_argument("--witness", default=None, help="write the witness tree here")
    p.add_argument("--table", default=None, help="write the DP table here (TSV)")
    p.add_argument("--convention", choices=list(mots.CONVENTIONS), default="classical")

    command("compile", lambda a: circuits.format_circuit(circuits.compile_tree(_tree(a))),
            "orthogonal tree -> preparation circuit", source, out)
    command("simulate", lambda a: _amplitudes(a, circuits.simulate(
        circuits.parse_circuit(_read(a.input)), tol=a.tolerance)),
        "run a circuit on |0..0>", source, zeros, tol, out)

    # each experiment declares the flags its report reads, and sets func
    experiments = command("rank-exp", None, "rank-statistics experiments").add_subparsers(
        dest="experiment", required=True)
    seeded = (shared("--seed", type=int, default=0, help="master seed (default 0)"), out)
    trials = shared("--trials", type=int, default=1000)
    qubits = shared("--n", type=int, default=16)

    def experiment(name: str, report, *parents) -> None:
        experiments.add_parser(name, parents=parents + seeded).set_defaults(
            func=lambda a: _report_tsv(report(a)))

    experiment("subgroup", lambda a: rank.subgroup_rank_experiment(a.n, a.trials, a.seed),
               qubits, trials)
    experiment("vandermonde", lambda a: rank.vandermonde_rank_experiment(
        VandermondeParams(a.n, a.k, a.d, a.c), a.trials, a.seed),
        qubits, shared("--k", type=int, default=3), shared("--d", type=int, default=4),
        shared("--c", type=int, default=8), trials)
    experiment("erasure", lambda a: rank.erasure_recoverability_check(
        _coset(a.matrix, "erasure"), a.l, a.trials, a.seed),
        shared("--matrix", default=None), shared("--l", type=int, default=4), trials)
    experiment("subset-sum", lambda a: rank.subset_sum_coverage(
        a.n, a.m, a.p, a.gamma, a.trials, a.seed),
        qubits, shared("--m", type=int, default=8), shared("--p", type=int, default=101),
        shared("--gamma", type=float, default=0.2), trials)
    experiment("chi", _chi_report, shared("--state", default=None),
               shared("--mode", choices=["auto", "exhaustive", "sampled"], default="auto"))

    p = command("vandermonde", _vandermonde, "emit the binary Vandermonde matrix", out)
    p.add_argument("--n", type=int, default=15)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--c", type=int, default=8)
    p.add_argument("--check-weight", action="store_true",
                   help="report the exhaustive minimum nonzero image weight instead")

    return ap


def dispatch(argv: list[str]) -> int:
    """Run one command line and write its text to -o.  A domain or I/O error is one
    'ERROR' line on stderr and status 1; a closed stdout pipe goes on to main()."""
    args = build_parser().parse_args(argv)
    try:
        _write(args.output, args.func(args))
    except BrokenPipeError:
        raise
    except StateTreesError as e:
        print(f"ERROR {e.code}: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as e:
        print(f"ERROR domain: {e}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    try:
        code = dispatch(sys.argv[1:])
    except BrokenPipeError:
        code = 1  # downstream closed the pipe (e.g. | head); exit quietly
    if code:
        # a failed write to stdout leaves its bytes in the buffer, and the flush
        # at exit would fail on them again: send them to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
