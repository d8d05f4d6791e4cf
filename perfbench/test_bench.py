"""Tests of the benchmark itself: exact work counts and honest checkers.

    python3 -m pytest -q perfbench/test_bench.py

Run from the root of a source checkout (about a minute).
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from statetrees import builders, dsl, formulas, gf2, mots, trees  # noqa: E402

# counts that must not depend on the run: same seed, same numbers
EXACT = ("mots.dp_pairs", "circuits.amp_updates", "trees.leaves_walked",
         "rank.partition_cells", "formulas.size_out")


def _traced_counts(name: str, seed: int, r: int, workdir: Path) -> dict:
    h = run.Harness(workloads.WORKLOADS[name], seed, workdir)
    h.tracer = spans.Tracer()
    h.tracer.install()
    try:
        h.run_round(r, h.inputs(r))
    finally:
        h.tracer.uninstall()
    assert h.wrong == 0
    return dict(h.tracer.counts[r])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_exactly(name, tmp_path):
    first = _traced_counts(name, 7, 0, tmp_path / "a")
    again = _traced_counts(name, 7, 0, tmp_path / "b")
    other_round = _traced_counts(name, 7, 1, tmp_path / "c")
    assert first == again
    for key in EXACT:
        assert first.get(key, 0) == other_round.get(key, 0), key


def test_tracer_restores_every_name():
    import statetrees.circuits
    import statetrees.mots
    before = (statetrees.circuits.classify_tree, statetrees.mots.enumerate_coset)
    tracer = spans.Tracer()
    tracer.install()
    assert statetrees.circuits.classify_tree is not before[0]
    assert statetrees.mots.enumerate_coset is not before[1]
    tracer.uninstall()
    assert (statetrees.circuits.classify_tree, statetrees.mots.enumerate_coset) == before


def test_dp_pairs_matches_the_split_loop():
    for n in range(1, 9):
        pairs = 0
        for mask in range(1, 1 << n):
            rest = mask ^ (mask & -mask)
            s = (rest - 1) & rest
            while rest:
                pairs += 1
                if s == 0:
                    break
                s = (s - 1) & rest
        assert spans.dp_pairs(n) == pairs


def test_tail_is_the_job_with_ten_beyond_it():
    times = [float(i) for i in range(40)]
    assert run.tail_job(times) == (29.0, 75.0)


@pytest.mark.parametrize("tree", [builders.build_cluster1d(8), builders.build_parity(6, 1),
                                  builders.build_knill_tree(), builders.build_hamming(7, 3)])
def test_checkers_agree_with_the_package(tree):
    text = dsl.serialize(tree)
    node = checks.read_tree(text)
    assert node == tree.root
    vec, manifest = checks.eval_tree(node, tree.n)
    assert np.allclose(vec, trees.evaluate(tree), atol=1e-12)
    assert manifest == (trees.classify_tree(tree) == "manifestly-orthogonal")
    assert checks.tree_shape(node) == (trees.tree_size(tree), trees.depth(tree))
    f = formulas.tree_to_formula(tree)
    post = checks.read_formula(formulas.serialize_formula(f))
    got = checks.formula_values(post, np.arange(1 << tree.n), tree.n)
    assert np.allclose(got, formulas.formula_truth_values(f, tree.n), atol=1e-12)
    amps = checks.read_amplitudes(dsl.format_amplitudes(vec), tree.n)
    assert np.array_equal(amps, vec)


def test_checks_reject_a_wrong_state():
    want = checks.cluster_state(4)
    bad = want.copy()
    bad[3] = -bad[3]
    with pytest.raises(checks.CheckFailed):
        checks.require_state(bad, want, "flipped sign")


def test_reference_states_match_the_builders():
    perm = [3, 1, 4, 2]
    tree = builders.build_cluster1d(4)
    moved = dsl.parse(checks.relabel_text(dsl.serialize(tree), perm))
    assert np.allclose(trees.evaluate(moved), checks.relabel_state(checks.cluster_state(4), perm))
    assert np.allclose(trees.evaluate(builders.build_parity(5, 1)), checks.parity_state(5, 1))
    assert np.allclose(trees.evaluate(builders.build_cat(5)), checks.cat_state(5))


def test_every_metric_and_workload_is_in_benchmark_json():
    import json
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(spans.LAYER_METRICS)


@pytest.mark.parametrize("n", range(1, 8))
def test_independent_dp_agrees_with_the_package(n):
    rng = np.random.default_rng(n)
    for k in range(1, 6):
        rows = [int(x) for x in rng.integers(0, 1 << n, size=k)]
        got = checks.mo_table(rows, n)
        res = mots.mots_coset(gf2.BitMatrix(k, n, tuple(rows)), witness=False, table=True)
        assert got[1:] == [res.table[m][0] for m in range(1, 1 << n)]


def test_independent_dp_agrees_with_the_brute_force_oracle():
    # rows (1, 0, 1) and (0, 1, 1): the subgroup {000, 101, 011, 110}
    rows, n = [0b101, 0b011], 3
    support = [x for x in range(1 << n) if all(bin(x & r).count("1") % 2 == 0 for r in rows)]
    assert checks.mo_table(rows, n)[-1] == mots.mots_bruteforce(support, n)


def test_random_rows_are_the_experiment_matrices():
    assert checks.random_rows(99, 4, 3, 7) == list(gf2.random_bitmatrix(3, 7, 99, 4).rows)


def test_an_inflated_mots_value_is_rejected(tmp_path):
    job = workloads.WORKLOADS["mots-witness"].make_round(5, 0, tmp_path)[0]  # n = 12
    assert job.run() == 0
    job.check(0)
    out = tmp_path / "m0.out"
    value = int(checks.read_tsv(out.read_text())[0]["value"])
    out.write_text(out.read_text().replace(f"value\t{value}\n", f"value\t{value + 2}\n"))
    with pytest.raises(checks.CheckFailed, match="independent dp"):
        job.check(0)


def test_an_inflated_experiment_histogram_is_rejected(tmp_path):
    job = next(j for j in workloads.WORKLOADS["experiments"].make_round(5, 0, tmp_path)
               if j.label == "mots_random n=9")
    rep = job.run()
    job.check(rep)
    worst = max(rep["histogram"])
    hist = {v: c for v, c in rep["histogram"].items() if v != worst}
    with pytest.raises(checks.CheckFailed, match="independent dp"):
        job.check(dict(rep, histogram={**hist, worst + 2: rep["histogram"][worst]}, max=worst + 2))
