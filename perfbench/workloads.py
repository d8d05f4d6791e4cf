"""The four seeded workloads: their job lists, inputs and output checks.

A workload is a fixed list of jobs (one round).  The harness repeats
rounds with fresh inputs until the run time is spent; the inputs of job
j in round r come only from (seed, workload, r, j), so no two timed
jobs share an input and a cache kept across jobs cannot fake a gain.
Inputs keep their size and shape from round to round (qubit labels,
matrices and experiment seeds change, sizes do not), so each round does
the same amount of work and the work counts of the trace repeat exactly.

A job is one CLI invocation (`statetrees.cli.dispatch`, files in the
round directory) or, when no subcommand exists, one library call.
"""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from checks import require

import statetrees.cli
from statetrees import builders, circuits, dsl, gf2, mots


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    cli: bool = True


@dataclass(frozen=True)
class Workload:
    name: str
    stresses: str
    bypasses: str
    min_rounds: int
    make_round: Callable[[int, int, Path], list[Job]]
    notes: str = ""


def _rng(seed: int, salt: int, r: int, j: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt, r, j])


def _cli(label: str, argv: list[str], check: Callable[[object], None]) -> Job:
    return Job(label, lambda: statetrees.cli.dispatch(argv), check)


def _random_rows(rng: np.random.Generator, k: int, n: int) -> list[int]:
    bits = rng.integers(0, 2, size=(k, n))
    return [int("".join(str(int(b)) for b in row), 2) for row in bits]


def _full_rank_rows(rng: np.random.Generator, k: int, n: int) -> list[int]:
    """[I | R] with its columns shuffled: rank exactly k, so sizes repeat."""
    bits = np.concatenate([np.eye(k, dtype=int), rng.integers(0, 2, size=(k, n - k))], axis=1)
    bits = bits[:, rng.permutation(n)]
    return [int("".join(str(int(b)) for b in row), 2) for row in bits]


def _consistent_b(rng: np.random.Generator, rows: list[int], n: int) -> int:
    x0 = int(rng.integers(0, 1 << n))
    b = 0
    for r in rows:
        b = (b << 1) | (bin(r & x0).count("1") & 1)
    return b


def _matrix_text(rows: list[int], n: int, b: int | None = None) -> str:
    lines = [f"{len(rows)} {n}"] + [format(r, f"0{n}b") for r in rows]
    if b is not None:
        lines.append("b " + format(b, f"0{len(rows)}b"))
    return "\n".join(lines) + "\n"


def _perm(rng: np.random.Generator, n: int) -> list[int]:
    return [int(p) + 1 for p in rng.permutation(n)]


def _read_report(path: Path) -> dict[str, str]:
    rows = checks.read_tsv(path.read_text())
    require(len(rows) == 1, f"{path.name}: expected one report row")
    return rows[0]


def _require_no_violations(path: Path) -> None:
    require(checks.read_tsv(path.read_text()) == [], f"{path.name}: validate reported violations")


def _require_label(path: Path, label: str) -> None:
    got = path.read_text().strip()
    require(got == label, f"{path.name}: classified {got!r}, expected {label!r}")


def _require_amps(path: Path, want: np.ndarray, n: int) -> None:
    checks.require_state(checks.read_amplitudes(path.read_text(), n), want, path.name)


# ---------------------------------------------------------------------------
# mots-witness: the exact MO dp with witness and table


# (n, k) per job; over the min_rounds (4) rounds that job_tail_s is taken
# from, the class sizes keep the median inside the n=13 jobs and the
# 11th-largest job inside the n=14 jobs.
MOTS_MIX = [(12, 3), (12, 5), (12, 7), (12, 9), (13, 4), (13, 8), (14, 5), (14, 7), (14, 10), (15, 6)]
MOTS_DP_CHECK_N = 12  # values and tables are recomputed by checks.mo_table up to this n


def _mots_round(seed: int, r: int, d: Path) -> list[Job]:
    jobs = []
    for j, (n, k) in enumerate(MOTS_MIX):
        rng = _rng(seed, 1, r, j)
        rows = _random_rows(rng, k, n)
        b = _consistent_b(rng, rows, n)
        mat, wit, tab, out = (d / f"m{j}.{ext}" for ext in ("mat", "tree", "tsv", "out"))
        mat.write_text(_matrix_text(rows, n, b))

        def check(_res, n=n, rows=rows, b=b, wit=wit, tab=tab, out=out):
            rep = {row["key"]: row["value"] for row in checks.read_tsv(out.read_text())}
            value = int(rep["value"])
            table = checks.read_tsv(tab.read_text())
            require(len(table) == (1 << n) - 1, "table does not have 2^n - 1 rows")
            if n <= MOTS_DP_CHECK_N:
                exact = checks.mo_table(rows, n)
                require(value == exact[-1], f"value {value} != {exact[-1]} from the independent dp")
                require(all(int(row["value"]) == exact[int(row["columns"], 2)] for row in table),
                        "table values differ from the independent dp")
            want = checks.coset_state(rows, b, n)
            require(int(rep["coset_size"]) == int(np.count_nonzero(want)), "coset_size is wrong")
            tree = checks.read_tree(wit.read_text())
            require(checks.tree_shape(tree)[0] == value, "witness leaf count differs from value")
            vec, manifest = checks.eval_tree(tree, n)
            require(manifest, "witness is not manifestly orthogonal")
            fid = checks.fidelity(vec, want)
            require(fid >= checks.FIDELITY_FLOOR, f"witness fidelity {fid!r}")

        jobs.append(_cli(f"mots n={n}", ["mots", "--matrix", str(mat), "--witness", str(wit),
                                         "--table", str(tab), "-o", str(out)], check))
    return jobs


# ---------------------------------------------------------------------------
# tree-pipeline: build -> serialize -> parse -> walkers -> formula -> balance

CLUSTER_N = 16
COSET_N, COSET_K = 10, 3
FORMULA_N = 8
CHAIN_N = 8
CHAIN_OK, CHAIN_DEEP = 300, 3000  # below and past the interpreter recursion limit


def _tree_round(seed: int, r: int, d: Path) -> list[Job]:
    jobs: list[Job] = []

    # large general trees: the 1-D cluster state, qubits relabelled per tree;
    # two trees a round keep the walkers ahead of the text parser
    cluster = dsl.serialize(builders.build_cluster1d(CLUSTER_N))
    for t, cmds in enumerate([("validate", "classify", "eval"), ("classify", "validate")]):
        perm = _perm(_rng(seed, 2, r, 10 + t), CLUSTER_N)
        big = d / f"cluster{t}.tree"
        big.write_text(checks.relabel_text(cluster, perm))
        amps = checks.relabel_state(checks.cluster_state(CLUSTER_N), perm)
        for cmd in cmds:
            out = d / f"cluster{t}.{cmd}"
            check = {
                "validate": lambda _r, out=out: _require_no_violations(out),
                "classify": lambda _r, out=out: _require_label(out, "general"),
                "eval": lambda _r, out=out, amps=amps: _require_amps(out, amps, CLUSTER_N),
            }[cmd]
            jobs.append(_cli(f"cluster {cmd}", [cmd, str(big), "-o", str(out)], check))

    # a coset tree built through the CLI, then walked
    rng = _rng(seed, 2, r, 1)
    rows = _full_rank_rows(rng, COSET_K, COSET_N)
    b = _consistent_b(rng, rows, COSET_N)
    mat = d / "coset.mat"
    mat.write_text(_matrix_text(rows, COSET_N, b))
    want = checks.coset_state(rows, b, COSET_N)
    ctree = d / "coset.tree"

    def check_build(_res):
        got = checks.read_tree(ctree.read_text())
        expect = builders.build_coset_sigma1(gf2.Coset(gf2.BitMatrix(COSET_K, COSET_N, tuple(rows)), b))
        require(got == expect.root, "parsing the serialized tree does not give the built tree")
        checks.require_state(checks.eval_tree(got, COSET_N)[0], want, "coset.tree")

    jobs.append(_cli("coset build", ["build", "coset-sigma1", "--matrix", str(mat), "-o", str(ctree)],
                     check_build))
    jobs.append(_cli("coset validate", ["validate", str(ctree), "-o", str(d / "coset.validate")],
                     lambda _r: _require_no_violations(d / "coset.validate")))
    jobs.append(_cli("coset classify", ["classify", str(ctree), "-o", str(d / "coset.classify")],
                     lambda _r: _require_label(d / "coset.classify", "manifestly-orthogonal")))
    jobs.append(_cli("coset eval", ["eval", str(ctree), "-o", str(d / "coset.eval")],
                     lambda _r: _require_amps(d / "coset.eval", want, COSET_N)))

    # formula conversion and balancing; relabelling keeps the formula's
    # shape, so the balanced size repeats exactly from round to round
    perm = _perm(_rng(seed, 2, r, 4), FORMULA_N)
    ftree, form, bal = d / "small.tree", d / "small.formula", d / "small.balanced"
    ftree.write_text(checks.relabel_text(dsl.serialize(builders.build_cluster1d(FORMULA_N)), perm))
    fwant = checks.relabel_state(checks.cluster_state(FORMULA_N), perm)
    points = np.arange(1 << FORMULA_N)

    def check_formula(path: Path) -> None:
        vals = checks.formula_values(checks.read_formula(path.read_text()), points, FORMULA_N)
        checks.require_state(vals, fwant, path.name)

    jobs.append(_cli("convert", ["convert", str(ftree), "--to", "formula", "-o", str(form)],
                     lambda _r: check_formula(form)))
    jobs.append(_cli("balance", ["balance", str(form), "-o", str(bal)], lambda _r: check_formula(bal)))

    # chains of single-child + vertices over a product state
    for depth in (CHAIN_OK, CHAIN_DEEP):
        rng = _rng(seed, 2, r, 2 if depth == CHAIN_OK else 3)
        theta = rng.uniform(0.1, 1.4, size=CHAIN_N)
        alphas, betas = np.cos(theta).tolist(), np.sin(theta).tolist()
        chain = d / f"chain{depth}.tree"
        chain.write_text(checks.plus_chain_text(depth, checks.product_text(alphas, betas)))
        ref = np.ones(1, dtype=complex)
        for a, bb in zip(alphas, betas):
            ref = np.kron(ref, np.array([a, bb], dtype=complex))
        cmds = ("eval", "classify", "validate") if depth == CHAIN_OK else ("eval", "classify")
        for cmd in cmds:
            out = d / f"chain{depth}.{cmd}"
            check = {
                "validate": lambda _r, out=out: _require_no_violations(out),
                "classify": lambda _r, out=out: _require_label(out, "manifestly-orthogonal"),
                "eval": lambda _r, out=out, ref=ref: _require_amps(out, ref, CHAIN_N),
            }[cmd]
            jobs.append(_cli(f"chain{depth} {cmd}", [cmd, str(chain), "-o", str(out)], check))
    return jobs


# ---------------------------------------------------------------------------
# prep-simulate: compile orthogonal trees, simulate the circuits

PARITY_N, CAT_N = 10, 16  # 2738 gates at width 15; 50 gates at width 17


def _family_text(kind: str, rng: np.random.Generator) -> tuple[str, np.ndarray]:
    """Tree text with relabelled qubits, and its (relabelling-invariant) state."""
    if kind == "parity":
        j = int(rng.integers(0, 2))
        tree, state, n = builders.build_parity(PARITY_N, j), checks.parity_state(PARITY_N, j), PARITY_N
    else:
        tree, state, n = builders.build_cat(CAT_N), checks.cat_state(CAT_N), CAT_N
    return checks.relabel_text(dsl.serialize(tree), _perm(rng, n)), state


def _require_prepared(circ_path: Path, amps_path: Path, want: np.ndarray) -> None:
    n_data, n_anc = (int(x) for x in circ_path.read_text().split("\n", 1)[0].split()[1:3])
    v = checks.read_amplitudes(amps_path.read_text(), n_data + n_anc).reshape(1 << n_data, 1 << n_anc)
    data = v[:, 0]
    ancilla_mass = float(np.vdot(v, v).real - np.vdot(data, data).real)
    require(ancilla_mass <= checks.AMP_TOL, f"{amps_path.name}: ancilla mass {ancilla_mass:.3e}")
    fid = checks.fidelity(data, want)
    require(fid >= checks.FIDELITY_FLOOR, f"{amps_path.name}: fidelity {fid!r}")


def _prep_round(seed: int, r: int, d: Path) -> list[Job]:
    compile_jobs: list[Job] = []
    simulate_jobs: list[Job] = []
    # compiled through the CLI, then simulated; and extra circuits compiled
    # here, so simulate jobs outnumber compile jobs without sharing inputs
    plan = [("parity", True), ("cat", True), ("parity", False), ("cat", False), ("cat", False)]
    for j, (kind, timed_compile) in enumerate(plan):
        text, want = _family_text(kind, _rng(seed, 3, r, j))
        tree_path, circ, amps = d / f"t{j}.tree", d / f"t{j}.circ", d / f"t{j}.amps"
        if timed_compile:
            tree_path.write_text(text)
            compile_jobs.append(_cli(f"compile {kind}", ["compile", str(tree_path), "-o", str(circ)],
                                     lambda _r, circ=circ: require(circ.read_text().startswith("qubits "),
                                                                   "circuit header missing")))
        else:
            circ.write_text(circuits.format_circuit(circuits.compile_tree(dsl.parse(text))))
        simulate_jobs.append(_cli(f"simulate {kind}",
                                  ["simulate", str(circ), "--skip-zeros", "-o", str(amps)],
                                  lambda _r, circ=circ, amps=amps, want=want:
                                  _require_prepared(circ, amps, want)))
    return compile_jobs[:1] + simulate_jobs[:1] + compile_jobs[1:] + simulate_jobs[1:]


# ---------------------------------------------------------------------------
# experiments: partition-rank experiments plus many small MO dps


def _exp_round(seed: int, r: int, d: Path) -> list[Job]:
    jobs: list[Job] = []

    def exp_seed(j: int) -> str:
        return str(int(_rng(seed, 4, r, j).integers(0, 1 << 62)))

    def report_check(out: Path, rule: Callable[[dict], None]):
        return lambda _r: rule({k: float(v) for k, v in _read_report(out).items()})

    def subgroup_rule(rep):
        require(rep["permutation_mismatch"] == 0, "permutation_mismatch != 0")
        require(rep["full_rank_fraction"] >= rep["both_invertible_fraction"],
                "full_rank_fraction < both_invertible_fraction")

    # two n=16 subgroup jobs a round keep the 11th-largest job inside that class
    for j, (n, trials) in enumerate([(16, 60), (16, 60), (12, 200)]):
        out = d / f"subgroup{j}.tsv"
        jobs.append(_cli(f"subgroup n={n}", ["rank-exp", "subgroup", "--n", str(n), "--trials", str(trials),
                                             "--seed", exp_seed(j), "-o", str(out)],
                         report_check(out, subgroup_rule)))

    n, k, l = 14, 6, 4
    mat = d / "erasure.mat"
    rng = _rng(seed, 4, r, 3)
    rows = _random_rows(rng, k, n)
    mat.write_text(_matrix_text(rows, n, _consistent_b(rng, rows, n)))
    out = d / "erasure.tsv"
    jobs.append(_cli("erasure", ["rank-exp", "erasure", "--matrix", str(mat), "--l", str(l), "--trials", "300",
                                 "--seed", exp_seed(4), "-o", str(out)],
                     report_check(out, lambda rep: require(0 <= rep["rank_min"] <= rep["rank_max"] <= 1 << l,
                                                           "erasure ranks outside [0, 2^l]"))))

    out = d / "vandermonde.tsv"
    jobs.append(_cli("vandermonde", ["rank-exp", "vandermonde", "--n", "15", "--k", "3", "--d", "4", "--c", "8",
                                     "--trials", "1000", "--seed", exp_seed(5), "-o", str(out)],
                     report_check(out, lambda rep: require(0.0 <= rep["full_rank_fraction"] <= 1.0,
                                                           "full_rank_fraction outside [0, 1]"))))

    m, p = 8, 101
    out = d / "subset.tsv"
    jobs.append(_cli("subset-sum", ["rank-exp", "subset-sum", "--n", "16", "--m", str(m), "--p", str(p),
                                    "--trials", "1000", "--seed", exp_seed(6), "-o", str(out)],
                     report_check(out, lambda rep: require(1 <= rep["coverage_min"] <= rep["coverage_max"]
                                                           <= min(p, 1 << m), "coverage outside [1, p]"))))

    chi_n = 10
    rng = _rng(seed, 4, r, 7)
    v = rng.normal(size=1 << chi_n) + 1j * rng.normal(size=1 << chi_n)
    v /= np.linalg.norm(v)
    state = d / "chi.amps"
    state.write_text("".join(f"{x:0{chi_n}b} {float(z.real)!r} {float(z.imag)!r}\n" for x, z in enumerate(v)))
    generic = int(np.linalg.matrix_rank(v.reshape(1 << (chi_n // 2), -1), tol=1e-9))
    out = d / "chi.tsv"
    jobs.append(_cli("chi", ["rank-exp", "chi", "--state", str(state), "-o", str(out)],
                     report_check(out, lambda rep: require(rep["chi"] == generic,
                                                           f"chi {rep['chi']} != {generic}"))))

    for j, (n, k, trials) in enumerate([(11, 5, 10), (9, 4, 55)], start=8):
        s = int(exp_seed(j))

        def mots_check(rep, n=n, k=k, trials=trials, s=s):
            require(sum(rep["histogram"].values()) == trials, "histogram does not count every trial")
            require(n <= rep["min"] <= rep["median"] <= rep["max"], "values out of order or below n")
            if n <= MOTS_DP_CHECK_N:
                values = [checks.mo_table(checks.random_rows(s, t, k, n), n)[-1] for t in range(trials)]
                require(rep["histogram"] == dict(sorted(Counter(values).items())),
                        "histogram differs from the independent dp")
                require((rep["min"], rep["median"], rep["max"])
                        == (min(values), statistics.median(values), max(values)),
                        "min/median/max differ from the independent dp")

        jobs.append(Job(f"mots_random n={n}",
                        lambda n=n, k=k, trials=trials, s=s: mots.mots_random_experiment(n, k, trials, s),
                        mots_check, cli=False))
    return jobs


WORKLOADS = {
    w.name: w for w in [
        Workload("mots-witness",
                 "mots (dp split loop, subset ranks, witness), gf2 (coset enumeration), cli (table TSV)",
                 "trees walkers, circuits, rank, formulas", 4, _mots_round),
        Workload("tree-pipeline",
                 "trees (evaluate, validate, classify), dsl (parse, serialize, amplitude text), "
                 "formulas (convert, balance), builders",
                 "circuits, mots, rank", 4, _tree_round,
                 "the depth-3000 chain jobs fail with RecursionError in the recursive walkers and "
                 "are counted as failed; balance on cluster1d(16) (about 1.9 s a call) is kept out "
                 "so the walkers dominate"),
        Workload("prep-simulate",
                 "circuits (compile, format, parse, simulate), trees.classify inside compile",
                 "mots, rank, formulas", 8, _prep_round,
                 "known cliffs, not run: compile+simulate of parity(12) (about 139 s) and of "
                 "coset-sigma1 at n=12 (about 160 s) exceed the run budget"),
        Workload("experiments",
                 "rank (experiment trial loops), mots (small value-only dps), gf2 ranks, codes",
                 "trees walkers, circuits, formulas", 8, _exp_round),
    ]
}
